package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"

	"dpcpp/internal/analysis"
	"dpcpp/internal/experiments"
	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/taskgen"
)

// gridGet streams one grid request and returns the parsed point lines and
// the trailing done line.
func gridGet(t *testing.T, s *Server, url string) ([]GridPoint, *GridDone, int) {
	t.Helper()
	return gridServe(t, s, httptest.NewRequest(http.MethodGet, url, nil))
}

// gridServe is gridGet for a prepared request.
func gridServe(t *testing.T, s *Server, req *http.Request) ([]GridPoint, *GridDone, int) {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		return nil, nil, w.Code
	}
	var points []GridPoint
	var done *GridDone
	sc := bufio.NewScanner(w.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var gd GridDone
		if json.Unmarshal(line, &gd) == nil && gd.Done {
			done = &gd
			continue
		}
		var gp GridPoint
		if err := json.Unmarshal(line, &gp); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		points = append(points, gp)
	}
	return points, done, w.Code
}

// TestGridStream: the streamed NDJSON must carry every utilization point
// exactly once, a trailing done line, and per-point counts that match a
// direct experiments.Campaign run with the same seed — the server is a
// transport, not a different experiment.
func TestGridStream(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})
	// One sample per point and the cheapest method keep this e2e sweep
	// fast while still exercising generation, hashing and the cache.
	const n = 1
	points, done, code := gridGet(t, s,
		"/v1/grid?scenario=2a&n=1&seed=2020&methods=DPCP-p-EN")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	utils := taskgen.UtilizationPoints(16) // scenario 2a has m=16
	if len(points) != len(utils) {
		t.Fatalf("streamed %d points, want %d", len(points), len(utils))
	}
	if done == nil || done.Points != len(utils) {
		t.Fatalf("missing or wrong done line: %+v", done)
	}
	seen := make(map[int]bool)
	for _, gp := range points {
		if seen[gp.Point] {
			t.Fatalf("point %d streamed twice", gp.Point)
		}
		seen[gp.Point] = true
		if gp.Total+gp.GenFailures != n {
			t.Errorf("point %d: total %d + genfail %d != n %d", gp.Point, gp.Total, gp.GenFailures, n)
		}
		if gp.Utilization != utils[gp.Point] {
			t.Errorf("point %d: utilization %v, want %v", gp.Point, gp.Utilization, utils[gp.Point])
		}
	}

	// Determinism against the direct harness: same seed, same scenario,
	// same counts.
	scen2a, err := taskgen.Fig2Scenario("2a")
	if err != nil {
		t.Fatal(err)
	}
	curve, err := experiments.Campaign{
		Scenario:         scen2a,
		Methods:          []analysis.Method{analysis.DPCPpEN},
		TasksetsPerPoint: n,
		Seed:             2020,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Point < points[j].Point })
	for pi, gp := range points {
		want := curve.Points[pi].Accepted[analysis.DPCPpEN]
		if gp.Accepted[string(analysis.DPCPpEN)] != want {
			t.Errorf("point %d: server accepted %d, direct harness %d",
				pi, gp.Accepted[string(analysis.DPCPpEN)], want)
		}
		if gp.Total != curve.Points[pi].Total {
			t.Errorf("point %d: server total %d, direct harness %d", pi, gp.Total, curve.Points[pi].Total)
		}
	}

	// The sweep populated the cache: metrics must show analyses ran.
	if m := s.Metrics(); m.Analyses == 0 || m.QueuedJobs != 0 {
		t.Errorf("metrics after grid: %+v", m)
	}
}

// TestGridCanceledStreamsOnlyRunPoints: a stream whose context ends
// mid-sweep carries only points that ran every sample — never a point
// whose samples were skipped — and ends without the done line.
func TestGridCanceledStreamsOnlyRunPoints(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	const n = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inner := s.engine.testFn
	var once sync.Once
	s.engine.testFn = func(m analysis.Method, ts *model.Taskset, opts analysis.Options) partition.Result {
		once.Do(cancel) // the client goes away during the first analysis
		return inner(m, ts, opts)
	}
	req := httptest.NewRequest(http.MethodGet,
		fmt.Sprintf("/v1/grid?scenario=2a&n=%d&methods=DPCP-p-EN", n), nil).WithContext(ctx)
	points, done, code := gridServe(t, s, req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, gp := range points {
		if gp.Total+gp.GenFailures != n {
			t.Errorf("point %d streamed with total %d + genfail %d != n %d",
				gp.Point, gp.Total, gp.GenFailures, n)
		}
	}
	if done != nil {
		t.Errorf("canceled stream sent the done line: %+v", done)
	}
	if m := s.Metrics(); m.QueuedJobs != 0 {
		t.Errorf("admission not drained after canceled stream: %+v", m)
	}
}

// deadConnWriter fails every write, like a client that disconnected before
// the stream started; it counts the attempts.
type deadConnWriter struct {
	header http.Header
	writes int
}

func (w *deadConnWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}
func (w *deadConnWriter) WriteHeader(int) {}
func (w *deadConnWriter) Write(p []byte) (int, error) {
	w.writes++
	return 0, fmt.Errorf("write on closed connection")
}

// TestGridStopsEncodingOnDeadClient: after the first failed write the
// handler must stop encoding points (and never send the done line), while
// still draining the sweep so admission accounting returns to zero.
func TestGridStopsEncodingOnDeadClient(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})
	req := httptest.NewRequest(http.MethodGet, "/v1/grid?scenario=2a&n=1&methods=DPCP-p-EN", nil)
	w := &deadConnWriter{}
	s.ServeHTTP(w, req)
	if w.writes != 1 {
		t.Errorf("handler attempted %d writes to a dead connection, want exactly 1 (the first failure)", w.writes)
	}
	if m := s.Metrics(); m.QueuedJobs != 0 {
		t.Errorf("admission not drained after dead-client stream: %+v", m)
	}
}

func TestGridParams(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		name, url string
	}{
		{"missing scenario", "/v1/grid"},
		{"bad scenario", "/v1/grid?scenario=9z"},
		{"bad grid index", "/v1/grid?scenario=g99999"},
		{"bad n", "/v1/grid?scenario=2a&n=0"},
		{"huge n", "/v1/grid?scenario=2a&n=99999999"},
		{"bad seed", "/v1/grid?scenario=2a&seed=x"},
		{"bad pathcap", "/v1/grid?scenario=2a&pathcap=-2"},
		{"bad methods", "/v1/grid?scenario=2a&methods=nope"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, code := gridGet(t, s, tc.url)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", code)
			}
		})
	}
	// A grid that could never fit the queue bound is rejected permanently
	// (400, not a retryable 429).
	s2 := newTestServer(t, Config{Workers: 1, MaxQueue: 5})
	_, _, code := gridGet(t, s2, "/v1/grid?scenario=2a&n=25")
	if code != http.StatusBadRequest {
		t.Fatalf("oversized grid: status %d, want 400", code)
	}
}
