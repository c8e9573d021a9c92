package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dpcpp/internal/analysis"
	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
	"dpcpp/internal/store"
)

// analyzeEN runs ts's DPCP-p-EN analysis through the engine's miss path.
func analyzeEN(ctx context.Context, s *Server, ts *model.Taskset) (*MethodResult, error) {
	m, opts := analysis.DPCPpEN, analysis.Options{}
	mr, _, err := s.engine.analyze(ctx, cacheKey(ts.Hash(), m, opts, false), ts, m, opts, false)
	return mr, err
}

// blockAnalyses swaps the engine's analysis function for one that parks
// every call on the returned release channel (closing it lets all calls
// through); entered receives one value per call that reached the analysis.
func blockAnalyses(s *Server) (entered chan struct{}, release chan struct{}) {
	entered = make(chan struct{}, 64)
	release = make(chan struct{})
	inner := s.engine.testFn
	s.engine.testFn = func(m analysis.Method, ts *model.Taskset, opts analysis.Options) partition.Result {
		entered <- struct{}{}
		<-release
		return inner(m, ts, opts)
	}
	return entered, release
}

// TestCancelFreesWorkerSlot is the acceptance regression for cancellation:
// with one worker slot held by a blocked analysis, a second request that is
// canceled while queued must return immediately with context.Canceled,
// count in the canceled metric, and leave the slot reusable.
func TestCancelFreesWorkerSlot(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	entered, release := blockAnalyses(s)

	ts1 := jsonRoundTrip(t, testTaskset(t, 0))
	done1 := make(chan error, 1)
	go func() {
		_, err := analyzeEN(context.Background(), s, ts1)
		done1 <- err
	}()
	<-entered // the only worker slot is now held

	ts2 := jsonRoundTrip(t, testTaskset(t, 7))
	ctx, cancel := context.WithCancel(context.Background())
	done2 := make(chan error, 1)
	go func() {
		_, err := analyzeEN(ctx, s, ts2)
		done2 <- err
	}()
	// Let the second call reach the slot queue, then abandon it. The sleep
	// only widens the window; correctness does not depend on it (a cancel
	// before queuing returns the same way).
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done2:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled analyze returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled analyze did not return: client disconnects would leak worker slots")
	}
	if got := s.engine.canceled.Load(); got != 1 {
		t.Fatalf("canceled counter = %d, want 1", got)
	}

	// The slot is reusable: finish the first analysis, then a third
	// distinct one must run to completion on the freed slot.
	close(release)
	if err := <-done1; err != nil {
		t.Fatalf("blocked analysis failed after release: %v", err)
	}
	ts3 := jsonRoundTrip(t, testTaskset(t, 13))
	mr, err := analyzeEN(context.Background(), s, ts3)
	if err != nil || mr == nil {
		t.Fatalf("post-cancel analyze: %v (the canceled call leaked the slot?)", err)
	}
}

// TestWaiterAbandonKeepsSharedComputation: a coalesced waiter that cancels
// must not cancel the in-flight computation other callers (or the cache)
// still want — the leader completes, the result is cached, and exactly one
// analysis ran.
func TestWaiterAbandonKeepsSharedComputation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	entered, release := blockAnalyses(s)

	ts := jsonRoundTrip(t, testTaskset(t, 0))
	h := ts.Hash()
	key := cacheKey(h, analysis.DPCPpEN, analysis.Options{}, false)
	leaderDone := make(chan error, 1)
	go func() {
		_, err := analyzeEN(context.Background(), s, ts)
		leaderDone <- err
	}()
	<-entered // leader is computing

	wctx, wcancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := analyzeEN(wctx, s, ts)
		waiterDone <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.engine.flight.waiting(key) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	wcancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning waiter returned %v, want context.Canceled", err)
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed after waiter abandoned: %v", err)
	}
	if _, ok := s.engine.cache.get(key); !ok {
		t.Fatal("completed computation did not land in the cache")
	}
	if got := s.engine.analyses.Load(); got != 1 {
		t.Fatalf("analyses = %d, want exactly 1", got)
	}
}

// TestAnalyzeTimeoutMS: a request whose timeout_ms expires gets the
// structured 503 timeout verdict, counts in deadline_exceeded, and — since
// the computation still completes and caches — an immediate retry succeeds
// without a second analysis.
func TestAnalyzeTimeoutMS(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	entered, release := blockAnalyses(s)

	body, err := json.Marshal(AnalyzeRequest{
		Taskset:   jsonRoundTrip(t, testTaskset(t, 0)),
		Methods:   []string{string(analysis.DPCPpEN)},
		TimeoutMS: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := post(t, s, "/v1/analyze", body)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", w.Code, w.Body.String())
	}
	var er errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || !er.Timeout {
		t.Fatalf("timeout verdict not structured: %s (%v)", w.Body.String(), err)
	}
	if got := s.Metrics().DeadlineExceeded; got != 1 {
		t.Fatalf("deadline_exceeded = %d, want 1", got)
	}

	// The abandoned-but-started analysis runs to completion and caches;
	// the retry is served from it.
	<-entered
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if w := post(t, s, "/v1/analyze", body); w.Code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("retry after timeout never succeeded")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := s.engine.analyses.Load(); got != 1 {
		t.Fatalf("analyses = %d, want 1 (timeout must not discard the computation)", got)
	}
}

// TestServerWideRequestTimeout: the -request-timeout config bounds requests
// that set no timeout_ms of their own.
func TestServerWideRequestTimeout(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, RequestTimeout: 30 * time.Millisecond})
	entered, release := blockAnalyses(s)
	defer func() { <-entered; close(release) }()

	w := post(t, s, "/v1/analyze", analyzeBody(t, testTaskset(t, 0), string(analysis.DPCPpEN)))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", w.Code, w.Body.String())
	}
	var er errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || !er.Timeout {
		t.Fatalf("timeout verdict not structured: %s", w.Body.String())
	}
}

// TestBatchTimeout: a batch past its deadline returns one structured 503 —
// never a partial result set.
func TestBatchTimeout(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	entered, release := blockAnalyses(s)
	defer func() { <-entered; close(release) }()

	req := BatchRequest{
		Tasksets: []*model.Taskset{
			jsonRoundTrip(t, testTaskset(t, 0)),
			jsonRoundTrip(t, testTaskset(t, 5)),
		},
		Methods:   []string{string(analysis.DPCPpEN)},
		TimeoutMS: 30,
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := post(t, s, "/v1/analyze/batch", body)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", w.Code, w.Body.String())
	}
	if m := s.Metrics(); m.QueuedJobs != 0 {
		t.Fatalf("timed-out batch left %d jobs admitted", m.QueuedJobs)
	}
}

var errInjected = errors.New("injected fault: input/output error")

// TestStoreBreakerDegradedMode drives the breaker end to end over HTTP:
// consecutive store failures open it, /healthz reports degraded (still
// 200), /v1/metrics exposes state and trips, and — the perf guarantee —
// requests under an open breaker touch the disk zero times while still
// being served.
func TestStoreBreakerDegradedMode(t *testing.T) {
	var reads, writes atomic.Int64
	var failing atomic.Bool
	hooks := &store.Hooks{
		BeforeRead: func(string) error {
			reads.Add(1)
			if failing.Load() {
				return errInjected
			}
			return nil
		},
		BeforeWrite: func(string) error {
			writes.Add(1)
			if failing.Load() {
				return errInjected
			}
			return nil
		},
	}
	s := newTestServer(t, Config{
		Workers:               2,
		StoreDir:              t.TempDir(),
		StoreBreakerThreshold: 4,
		StoreBreakerProbe:     time.Hour, // no probe during the test
		storeHooks:            hooks,
	})

	var h healthResponse
	if code := sweepGet(t, s, "/healthz", &h); code != http.StatusOK || !h.OK || h.Degraded {
		t.Fatalf("healthy server: code=%d %+v", code, h)
	}
	if st := s.Metrics().StoreState; st != store.BreakerClosed {
		t.Fatalf("store_state %q, want closed", st)
	}

	// Each cache-missing analysis costs one failed read and one failed
	// write; two requests reach the threshold of 4.
	failing.Store(true)
	for i := 0; i < 2; i++ {
		w := post(t, s, "/v1/analyze", analyzeBody(t, testTaskset(t, rtShift(100+i)), string(analysis.DPCPpEN)))
		if w.Code != http.StatusOK {
			t.Fatalf("request %d under store faults: %d (store failures must degrade, not fail)", i, w.Code)
		}
	}
	m := s.Metrics()
	if m.StoreState != store.BreakerOpen || m.StoreTrips != 1 {
		t.Fatalf("after %d store errors: state=%q trips=%d, want open/1 (%+v)", m.StoreErrors, m.StoreState, m.StoreTrips, m)
	}
	if code := sweepGet(t, s, "/healthz", &h); code != http.StatusOK {
		t.Fatalf("degraded healthz must stay 200, got %d", code)
	}
	if !h.OK || !h.Degraded || h.StoreState != store.BreakerOpen {
		t.Fatalf("degraded healthz body %+v", h)
	}

	// With the breaker open, requests skip the disk entirely: zero store
	// syscalls, every request still served.
	reads.Store(0)
	writes.Store(0)
	for i := 0; i < 3; i++ {
		w := post(t, s, "/v1/analyze", analyzeBody(t, testTaskset(t, rtShift(200+i)), string(analysis.DPCPpEN)))
		if w.Code != http.StatusOK {
			t.Fatalf("request %d under open breaker: %d", i, w.Code)
		}
	}
	if r, wr := reads.Load(), writes.Load(); r != 0 || wr != 0 {
		t.Fatalf("open breaker still cost %d reads, %d writes; want zero store syscalls", r, wr)
	}
}

// TestStoreBreakerRecovers: once the disk heals, the next probe closes the
// breaker and persistence resumes.
func TestStoreBreakerRecovers(t *testing.T) {
	var failing atomic.Bool
	hooks := &store.Hooks{
		BeforeRead: func(string) error {
			if failing.Load() {
				return errInjected
			}
			return nil
		},
		BeforeWrite: func(string) error {
			if failing.Load() {
				return errInjected
			}
			return nil
		},
	}
	s := newTestServer(t, Config{
		Workers:               2,
		StoreDir:              t.TempDir(),
		StoreBreakerThreshold: 2,
		StoreBreakerProbe:     time.Millisecond,
		storeHooks:            hooks,
	})
	failing.Store(true)
	post(t, s, "/v1/analyze", analyzeBody(t, testTaskset(t, 0), string(analysis.DPCPpEN)))
	if st := s.Metrics().StoreState; st != store.BreakerOpen {
		t.Fatalf("state %q, want open", st)
	}

	failing.Store(false)
	time.Sleep(2 * time.Millisecond) // past the probe interval
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; ; i++ {
		// Distinct tasksets force store accesses; the first one past the
		// interval is the probe that closes the breaker.
		post(t, s, "/v1/analyze", analyzeBody(t, testTaskset(t, rtShift(300+i)), string(analysis.DPCPpEN)))
		if s.Metrics().StoreState == store.BreakerClosed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed after recovery: %+v", s.Metrics())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if m := s.Metrics(); m.StorePuts == 0 {
		t.Fatalf("no puts after recovery: %+v", m)
	}
}

// TestSweepDeleteMidCheckpointWrite: DELETE racing an in-flight checkpoint
// write must let the write commit first and then remove the file — never a
// resurrected checkpoint that a later daemon would resume as a ghost job.
func TestSweepDeleteMidCheckpointWrite(t *testing.T) {
	dir := t.TempDir()
	var gate atomic.Bool
	renameEntered := make(chan struct{}, 1)
	renameRelease := make(chan struct{})
	hooks := &store.Hooks{BeforeRename: func(path string) error {
		if gate.CompareAndSwap(true, false) && strings.Contains(path, string(filepath.Separator)+"jobs"+string(filepath.Separator)) {
			renameEntered <- struct{}{}
			<-renameRelease
		}
		return nil
	}}
	s := newTestServer(t, Config{Workers: 2, StoreDir: dir, storeHooks: hooks})
	id := submitSweep(t, s, `{"scenarios":["2a"],"n":1,"seed":2020,"methods":["DPCP-p-EN"]}`)
	waitSweepState(t, s, id, sweepDone)
	j, ok := s.jobs.get(id)
	if !ok {
		t.Fatal("job vanished")
	}

	// Park a checkpoint write mid-rename, then DELETE concurrently. The
	// delete must serialize behind the write (ckmu) and win.
	gate.Store(true)
	ckDone := make(chan struct{})
	go func() { s.jobs.checkpoint(j); close(ckDone) }()
	<-renameEntered
	delCode := make(chan int, 1)
	go func() {
		req := httptest.NewRequest(http.MethodDelete, "/v1/sweeps/"+id, nil)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		delCode <- w.Code
	}()
	time.Sleep(5 * time.Millisecond) // let DELETE reach the ckmu queue
	close(renameRelease)
	<-ckDone
	if code := <-delCode; code != http.StatusNoContent {
		t.Fatalf("DELETE mid-checkpoint: %d, want 204", code)
	}
	ckPath := filepath.Join(dir, "jobs", id+".json")
	if _, err := os.Stat(ckPath); !os.IsNotExist(err) {
		t.Fatalf("checkpoint file survived DELETE (err=%v): a restart would resurrect the job", err)
	}
	// A straggler checkpoint after the delete must not resurrect it either.
	s.jobs.checkpoint(j)
	if _, err := os.Stat(ckPath); !os.IsNotExist(err) {
		t.Fatal("late checkpoint resurrected a deleted job")
	}
	var st SweepStatus
	if code := sweepGet(t, s, "/v1/sweeps/"+id, &st); code != http.StatusNotFound {
		t.Fatalf("deleted job still served: %d", code)
	}
}

// rtShift spaces taskset perturbations so distinct test iterations get
// distinct content hashes.
func rtShift(i int) rt.Time { return rt.Time(i) * rt.Microsecond }
