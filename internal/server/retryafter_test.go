package server

import (
	"sync"
	"testing"
	"time"

	"dpcpp/internal/analysis"
	"dpcpp/internal/model"
	"dpcpp/internal/obs"
	"dpcpp/internal/rt"
)

// TestRetryAfterSeconds pins the backpressure estimate: no data yet means
// 1s, otherwise ceil(queued*latency/workers) clamped to [1, 60]. The
// latency source is the engine's histogram EWMA — the same recorder behind
// /metrics — so each case seeds a fresh engine through Observe (a first
// sample is adopted as the EWMA verbatim; see obs.Histogram).
func TestRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct {
		name    string
		latency time.Duration // 0 = no samples observed yet
		queued  int64
		want    int
	}{
		{"no latency observed", 0, 8, 1},
		{"backlog estimate", 2 * time.Second, 8, 4}, // 8 jobs * 2s / 4 workers
		// Sub-second backlogs still tell the client to wait a full second.
		{"small backlog", 10 * time.Millisecond, 1, 1},
		// A pathological backlog is capped rather than extrapolated.
		{"huge backlog", 30 * time.Second, 1000, 60},
	} {
		e := newEngine(obs.NewRegistry(), 4, 8, 64, nil, nil)
		if tc.latency > 0 {
			e.latency.Observe(tc.latency)
		}
		e.queued.Store(tc.queued)
		if got := e.retryAfterSeconds(); got != tc.want {
			t.Errorf("%s: got %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestRetryAfterTracksHistogram pins the satellite invariant: Retry-After
// is computed from the latency histogram's EWMA, so observations through
// the one recorder move the estimate — there is no separate accumulator to
// drift.
func TestRetryAfterTracksHistogram(t *testing.T) {
	e := newEngine(obs.NewRegistry(), 4, 8, 64, nil, nil)
	e.queued.Store(4)
	e.latency.Observe(8 * time.Second)          // adopted: EWMA = 8s
	if got := e.retryAfterSeconds(); got != 8 { // 4 jobs * 8s / 4 workers
		t.Fatalf("after first observation: got %d, want 8", got)
	}
	// Many fast analyses pull the EWMA — and the promise — down.
	for i := 0; i < 200; i++ {
		e.latency.Observe(time.Millisecond)
	}
	if got := e.retryAfterSeconds(); got != 1 {
		t.Fatalf("after fast observations: got %d, want 1", got)
	}
	if e.latency.Count() != 201 {
		t.Fatalf("histogram count = %d, want 201 (same recorder feeds /metrics)", e.latency.Count())
	}
}

// TestPooledScratchConcurrency drives the engine's default testFn — the
// pooled-scratch path — from many goroutines at once. Under -race this
// fails if a Scratch is ever shared by two concurrent analyses; the
// verdict comparison fails if recycled scratch state leaks between
// tasksets.
func TestPooledScratchConcurrency(t *testing.T) {
	e := newEngine(obs.NewRegistry(), 4, 8, 1024, nil, nil)
	tss := make([]*model.Taskset, 6)
	for i := range tss {
		tss[i] = testTaskset(t, rt.Time(i)*10*rt.Microsecond)
	}
	want := make([]bool, len(tss))
	for i, ts := range tss {
		want[i] = analysis.Test(analysis.DPCPpEP, ts, analysis.Options{}).Schedulable
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				i := (g + rep) % len(tss)
				got := e.testFn(analysis.DPCPpEP, tss[i], analysis.Options{}).Schedulable
				if got != want[i] {
					t.Errorf("taskset %d: pooled verdict %v, want %v", i, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}
