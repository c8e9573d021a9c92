//go:build !race

package server

import (
	"net/http"
	"testing"
)

// TestCacheHitAllocs pins the request path's allocations on cache hits at
// the steady-state counts BenchmarkServerAnalyze reports at -benchtime
// 200x. A repeated body (tiny-hit, fig2a-hit) is answered by the
// exact-body cache. A new body for a cached taskset (fig2a-semantic: tasks
// rotated, one renamed) pays decode, Finalize and Hash before the result
// cache answers. The race detector makes sync.Pool drop items at random,
// hence the build tag.
func TestCacheHitAllocs(t *testing.T) {
	limits := map[string]float64{"tiny-hit": 37, "fig2a-hit": 37, "fig2a-semantic": 149}
	const runs = 100
	for _, c := range serverAnalyzeCases() {
		limit, ok := limits[c.name]
		if !ok {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			s := newTestServer(t, Config{Workers: 1, CacheSize: 1 << 20, MaxQueue: 1 << 30})
			// AllocsPerRun makes one warm-up call before the runs it counts.
			bodies := make([][]byte, runs+1)
			for i := range bodies {
				bodies[i] = c.body(t, i)
			}
			post(t, s, "/v1/analyze", c.body(t, -1)) // warm the cache
			next := 0
			allocs := testing.AllocsPerRun(runs, func() {
				w := post(t, s, "/v1/analyze", bodies[next])
				next++
				if w.Code != http.StatusOK {
					t.Fatalf("status %d", w.Code)
				}
			})
			if allocs > limit {
				t.Errorf("%v allocs per request, want <= %v", allocs, limit)
			}
		})
	}
}
