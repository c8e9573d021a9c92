package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"dpcpp/internal/analysis"
	"dpcpp/internal/model"
	"dpcpp/internal/partition"
)

// sweepGet GETs a sweep endpoint and decodes the JSON body into out.
func sweepGet(t *testing.T, s *Server, path string, out any) int {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code == http.StatusOK || w.Code == http.StatusAccepted {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("decoding %s: %v: %s", path, err, w.Body.String())
		}
	}
	return w.Code
}

// submitSweep POSTs a sweep and returns its ID.
func submitSweep(t *testing.T, s *Server, body string) string {
	t.Helper()
	w := post(t, s, "/v1/sweeps", []byte(body))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", w.Code, w.Body.String())
	}
	var acc SweepAccepted
	if err := json.Unmarshal(w.Body.Bytes(), &acc); err != nil || acc.ID == "" {
		t.Fatalf("submit response %q: %v", w.Body.String(), err)
	}
	return acc.ID
}

// waitSweepState polls the job until it reaches the state (or fails the
// test after 30s).
func waitSweepState(t *testing.T, s *Server, id, state string) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st SweepStatus
		if code := sweepGet(t, s, "/v1/sweeps/"+id, &st); code != http.StatusOK {
			t.Fatalf("status poll: %d", code)
		}
		if st.State == state {
			return st
		}
		if st.State == sweepFailed && state != sweepFailed {
			t.Fatalf("sweep failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s stuck in state %q waiting for %q", id, st.State, state)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSweepJobLifecycle: submit → 202 with ID → progress reaches done →
// results carry every point, matching a direct /v1/grid sweep of the same
// (scenario, n, seed) — the job system is a scheduler, not a different
// experiment.
func TestSweepJobLifecycle(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})
	id := submitSweep(t, s, `{"scenarios":["2a"],"n":1,"seed":2020,"methods":["DPCP-p-EN"]}`)
	st := waitSweepState(t, s, id, sweepDone)
	if len(st.Scenarios) != 1 || st.Scenarios[0].Done != st.Scenarios[0].Points {
		t.Fatalf("done status incomplete: %+v", st)
	}

	var res SweepResults
	if code := sweepGet(t, s, "/v1/sweeps/"+id+"/results", &res); code != http.StatusOK {
		t.Fatalf("results: %d", code)
	}
	points, done, code := gridGet(t, s, "/v1/grid?scenario=2a&n=1&seed=2020&methods=DPCP-p-EN")
	if code != http.StatusOK || done == nil {
		t.Fatalf("grid reference sweep: %d", code)
	}
	if len(res.Scenarios) != 1 || len(res.Scenarios[0].Points) != len(points) {
		t.Fatalf("results shape: %d scenarios, %d points; grid has %d points",
			len(res.Scenarios), len(res.Scenarios[0].Points), len(points))
	}
	for _, gp := range points {
		got := res.Scenarios[0].Points[gp.Point]
		if got == nil {
			t.Fatalf("point %d missing from done sweep", gp.Point)
		}
		if got.Total != gp.Total || got.Accepted["DPCP-p-EN"] != gp.Accepted["DPCP-p-EN"] {
			t.Errorf("point %d: sweep %+v != grid %+v", gp.Point, got, gp)
		}
	}

	// The listing shows the job; unknown IDs 404.
	var list SweepList
	if code := sweepGet(t, s, "/v1/sweeps", &list); code != http.StatusOK || len(list.Sweeps) != 1 {
		t.Fatalf("list: %d, %+v", code, list)
	}
	var nothing SweepStatus
	if code := sweepGet(t, s, "/v1/sweeps/nope", &nothing); code != http.StatusNotFound {
		t.Fatalf("unknown sweep: %d, want 404", code)
	}
	m := s.Metrics()
	if m.SweepsSubmitted != 1 || m.SweepsCompleted != 1 {
		t.Errorf("sweep counters: %+v", m)
	}
}

func TestSweepValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		name, body string
	}{
		{"empty scenarios", `{"scenarios":[]}`},
		{"bad scenario", `{"scenarios":["9z"]}`},
		{"bad grid index", `{"scenarios":["g9999"]}`},
		{"bad n", `{"scenarios":["2a"],"n":-3}`},
		{"huge n", `{"scenarios":["2a"],"n":99999999}`},
		{"bad method", `{"scenarios":["2a"],"methods":["DPCP-q"]}`},
		{"bad placement", `{"scenarios":["2a"],"placement":"best"}`},
		{"negative path cap", `{"scenarios":["2a"],"path_cap":-1}`},
		{"unknown field", `{"scenarios":["2a"],"bogus":1}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if w := post(t, s, "/v1/sweeps", []byte(tc.body)); w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", w.Code, w.Body.String())
			}
		})
	}
	if m := s.Metrics(); m.SweepsSubmitted != 0 {
		t.Errorf("rejected submissions counted: %+v", m)
	}
}

// TestSweepRestartResumesByteIdentical is the durability acceptance test:
// a server is killed mid-sweep (its runner stopped, partial progress
// checkpointed), a fresh server on the same store directory resumes the
// job, and the finished curves are byte-identical to an uninterrupted run
// of the same sweep.
func TestSweepRestartResumesByteIdentical(t *testing.T) {
	const spec = `{"scenarios":["2a"],"n":1,"seed":2020,"methods":["DPCP-p-EN"]}`
	dir := t.TempDir()

	// Server A: allow a few analyses through, then block the workers, so
	// the kill is guaranteed to land mid-sweep with some points
	// checkpointed and some not.
	a, err := New(Config{Workers: 2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	release := make(chan struct{})
	innerA := a.engine.testFn
	a.engine.testFn = func(m analysis.Method, ts *model.Taskset, opts analysis.Options) partition.Result {
		if calls.Add(1) > 3 {
			<-release
		}
		return innerA(m, ts, opts)
	}
	id := submitSweep(t, a, spec)
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st SweepStatus
		sweepGet(t, a, "/v1/sweeps/"+id, &st)
		if len(st.Scenarios) == 1 && st.Scenarios[0].Done >= 1 {
			if st.Scenarios[0].Done == st.Scenarios[0].Points {
				t.Fatal("sweep finished before the kill; gate broken")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no point ever completed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Kill: cancel the runner first (so released workers stop picking up
	// new samples), then unblock it and wait for the clean exit that
	// checkpoints progress.
	closed := make(chan struct{})
	go func() { a.Close(); close(closed) }()
	for a.jobs.ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-closed

	// Server B on the same store directory resumes the job to completion.
	b := newTestServer(t, Config{Workers: 2, StoreDir: dir})
	var listed SweepList
	if code := sweepGet(t, b, "/v1/sweeps", &listed); code != http.StatusOK || len(listed.Sweeps) != 1 {
		t.Fatalf("restarted server lost the job: %d %+v", code, listed)
	}
	waitSweepState(t, b, id, sweepDone)
	var resumed SweepResults
	sweepGet(t, b, "/v1/sweeps/"+id+"/results", &resumed)

	// Reference: the same sweep uninterrupted on a fresh in-memory server.
	c := newTestServer(t, Config{Workers: 2})
	refID := submitSweep(t, c, spec)
	waitSweepState(t, c, refID, sweepDone)
	var ref SweepResults
	sweepGet(t, c, "/v1/sweeps/"+refID+"/results", &ref)

	gotCurves, err := json.Marshal(resumed.Scenarios)
	if err != nil {
		t.Fatal(err)
	}
	wantCurves, err := json.Marshal(ref.Scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCurves, wantCurves) {
		t.Errorf("resumed curves differ from uninterrupted run:\ngot:  %s\nwant: %s", gotCurves, wantCurves)
	}

	// Resumption skipped the checkpointed points and served the killed
	// run's stray analyses from the persistent store: strictly fewer
	// fresh analyses than a full 21-point sweep.
	if m := b.Metrics(); m.Analyses >= 21 {
		t.Errorf("resumed run re-analyzed everything: %+v", m)
	}
}

// TestSweepLoadPausesQueueOverflow: a daemon that finds more unfinished
// checkpoints than its runner queue holds re-queues them in creation order
// and lists the overflow as paused. A paused job's partial results stay
// servable, with the state telling the client nothing more is coming on
// this daemon.
func TestSweepLoadPausesQueueOverflow(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	const jobs = maxSweepJobs + 9 // the queue holds maxSweepJobs+8
	for i := 1; i <= jobs; i++ {
		id := fmt.Sprintf("%016x", i)
		cp := fmt.Sprintf(`{"id":%q,"created_unix_nano":%d,"state":"queued","spec":`+
			`{"scenarios":["2a"],"n":1,"seed":2020,"methods":["DPCP-p-EN"]}}`, id, i)
		if err := os.WriteFile(filepath.Join(dir, "jobs", id+".json"), []byte(cp), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	var list SweepList
	if code := sweepGet(t, s, "/v1/sweeps", &list); code != http.StatusOK || len(list.Sweeps) != jobs {
		t.Fatalf("list: status %d, %d jobs, want %d", code, len(list.Sweeps), jobs)
	}
	overflow := fmt.Sprintf("%016x", jobs)
	for _, st := range list.Sweeps {
		if paused := st.State == sweepPaused; paused != (st.ID == overflow) {
			t.Fatalf("job %s is %q; only the last-created job %s should be paused", st.ID, st.State, overflow)
		}
	}
	var res SweepResults
	if code := sweepGet(t, s, "/v1/sweeps/"+overflow+"/results", &res); code != http.StatusOK {
		t.Fatalf("paused job results: %d, want 200", code)
	}
	if res.State != sweepPaused || len(res.Scenarios) != 1 {
		t.Fatalf("paused results %+v", res)
	}
}

// TestCampaignErrorsMatch: GET /v1/grid and POST /v1/sweeps resolve a
// campaign with one resolver, so the same bad campaign gets the same 400
// from both.
func TestCampaignErrorsMatch(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct{ name, query, body string }{
		{"n zero", "scenario=2a&n=0", `{"scenarios":["2a"],"n":0}`},
		{"n above bound", fmt.Sprintf("scenario=2a&n=%d", maxGridSamples+1),
			fmt.Sprintf(`{"scenarios":["2a"],"n":%d}`, maxGridSamples+1)},
		{"negative path cap", "scenario=2a&pathcap=-1", `{"scenarios":["2a"],"path_cap":-1}`},
		{"unknown method", "scenario=2a&methods=nope", `{"scenarios":["2a"],"methods":["nope"]}`},
		{"unknown scenario", "scenario=9z", `{"scenarios":["9z"]}`},
		{"missing scenario", "n=1", `{"n":1}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var errs [2]errorResponse
			for i, w := range []*httptest.ResponseRecorder{
				get(t, s, "/v1/grid?"+tc.query),
				post(t, s, "/v1/sweeps", []byte(tc.body)),
			} {
				if w.Code != http.StatusBadRequest {
					t.Fatalf("endpoint %d: status %d, want 400: %s", i, w.Code, w.Body.String())
				}
				if err := json.Unmarshal(w.Body.Bytes(), &errs[i]); err != nil || errs[i].Error == "" {
					t.Fatalf("endpoint %d: error body %q: %v", i, w.Body.String(), err)
				}
			}
			if errs[0].Error != errs[1].Error {
				t.Fatalf("grid says %q, sweeps say %q", errs[0].Error, errs[1].Error)
			}
		})
	}
}

// TestStoreWarmAcrossRestart: results computed by one server are served
// from the persistent store by the next — the analyses counter stays at
// zero for a repeated request after a restart.
func TestStoreWarmAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	a, err := New(Config{Workers: 2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	body := analyzeBody(t, testTaskset(t, 0), string(analysis.DPCPpEN), string(analysis.SPIN))
	if w := post(t, a, "/v1/analyze", body); w.Code != http.StatusOK {
		t.Fatalf("priming: %d", w.Code)
	}
	first := post(t, a, "/v1/analyze", body).Body.Bytes()
	if m := a.Metrics(); m.StorePuts != 2 {
		t.Fatalf("priming persisted %d results, want 2: %+v", m.StorePuts, m)
	}
	a.Close()

	b := newTestServer(t, Config{Workers: 2, StoreDir: dir})
	w := post(t, b, "/v1/analyze", body)
	if w.Code != http.StatusOK {
		t.Fatalf("restarted request: %d", w.Code)
	}
	if !bytes.Equal(w.Body.Bytes(), first) {
		t.Error("restarted server served different bytes")
	}
	m := b.Metrics()
	if m.Analyses != 0 || m.StoreHits != 2 {
		t.Errorf("restart should be store-served: analyses=%d store_hits=%d (%+v)",
			m.Analyses, m.StoreHits, m)
	}
}

// TestSweepLoadUnresolvableCheckpoint: a checkpoint this binary cannot
// resolve (here: invalid n, which fails validation before the point lists
// are sized) must surface as a failed job that still renders in listings,
// status and results — one bad file in the jobs directory must never panic
// the API or stop the daemon from starting.
func TestSweepLoadUnresolvableCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	bad := `{"id":"deadbeef01234567","created_unix_nano":1,"state":"queued","spec":{"scenarios":["2a"],"n":0}}`
	if err := os.WriteFile(filepath.Join(dir, "jobs", "deadbeef01234567.json"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	// Torn/foreign files are skipped entirely.
	if err := os.WriteFile(filepath.Join(dir, "jobs", "torn.json"), []byte(`{"id":`), 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	var list SweepList
	if code := sweepGet(t, s, "/v1/sweeps", &list); code != http.StatusOK || len(list.Sweeps) != 1 {
		t.Fatalf("list with bad checkpoint: %d, %+v", code, list)
	}
	var st SweepStatus
	if code := sweepGet(t, s, "/v1/sweeps/deadbeef01234567", &st); code != http.StatusOK {
		t.Fatalf("status of failed job: %d", code)
	}
	if st.State != sweepFailed || st.Error == "" {
		t.Fatalf("state %q (error %q), want failed with a reason", st.State, st.Error)
	}
	var res SweepResults
	if code := sweepGet(t, s, "/v1/sweeps/deadbeef01234567/results", &res); code != http.StatusOK {
		t.Fatalf("results of failed job: %d", code)
	}

	// The failure mark must stay in memory: the on-disk checkpoint may be
	// resumable by the binary that wrote it, so this one must not be
	// rewritten with state "failed".
	raw, err := os.ReadFile(filepath.Join(dir, "jobs", "deadbeef01234567.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cp sweepCheckpoint
	if err := json.Unmarshal(raw, &cp); err != nil {
		t.Fatal(err)
	}
	if cp.State != "queued" {
		t.Errorf("unresolvable checkpoint rewritten on disk: state %q, want original %q", cp.State, "queued")
	}
}

// TestSweepQueueFull: submissions past the pending-job bound get 429.
func TestSweepQueueFull(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	// Block the runner inside the first job's first analysis so every
	// later submission stays queued.
	release := make(chan struct{})
	inner := s.engine.testFn
	s.engine.testFn = func(m analysis.Method, ts *model.Taskset, opts analysis.Options) partition.Result {
		<-release
		return inner(m, ts, opts)
	}
	defer close(release)
	first := submitSweep(t, s, `{"scenarios":["2a"],"n":1,"methods":["DPCP-p-EN"]}`)
	// Wait for the runner to pick the first job up (and block inside it),
	// so exactly maxSweepJobs more fit the queue.
	deadline := time.Now().Add(10 * time.Second)
	for s.jobs.active.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("runner never started job %s", first)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < maxSweepJobs; i++ {
		w := post(t, s, "/v1/sweeps", []byte(`{"scenarios":["2a"],"n":1,"methods":["DPCP-p-EN"]}`))
		if w.Code != http.StatusAccepted {
			t.Fatalf("submission %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}
	w := post(t, s, "/v1/sweeps", []byte(`{"scenarios":["2a"],"n":1,"methods":["DPCP-p-EN"]}`))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: status %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestSweepDelete: DELETE cancels a running job at its next sample
// boundary, removes it from listings and deletes its checkpoint, and the
// runner moves on to later jobs.
func TestSweepDelete(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	release := make(chan struct{})
	inner := s.engine.testFn
	s.engine.testFn = func(m analysis.Method, ts *model.Taskset, opts analysis.Options) partition.Result {
		<-release
		return inner(m, ts, opts)
	}

	id := submitSweep(t, s, `{"scenarios":["2a"],"n":1,"methods":["DPCP-p-EN"]}`)
	deadline := time.Now().Add(10 * time.Second)
	for s.jobs.active.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("runner never started the job")
		}
		time.Sleep(time.Millisecond)
	}

	req := httptest.NewRequest(http.MethodDelete, "/v1/sweeps/"+id, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusNoContent {
		t.Fatalf("delete: status %d, want 204", w.Code)
	}
	close(release) // let the blocked analysis finish; the job is canceled

	var st SweepStatus
	if code := sweepGet(t, s, "/v1/sweeps/"+id, &st); code != http.StatusNotFound {
		t.Fatalf("deleted job still served: %d", code)
	}
	// The runner is free again: a new job runs to completion.
	next := submitSweep(t, s, `{"scenarios":["2a"],"n":1,"methods":["DPCP-p-EN"]}`)
	waitSweepState(t, s, next, sweepDone)
	// The canceled job's checkpoint is gone; the finished one's remains.
	if _, err := os.Stat(filepath.Join(dir, "jobs", id+".json")); !os.IsNotExist(err) {
		t.Errorf("deleted job's checkpoint still on disk (err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", next+".json")); err != nil {
		t.Errorf("finished job's checkpoint missing: %v", err)
	}
	// Deleting twice (or an unknown ID) 404s.
	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodDelete, "/v1/sweeps/"+id, nil))
	if w.Code != http.StatusNotFound {
		t.Errorf("double delete: %d, want 404", w.Code)
	}
}

// TestSweepOversizedJob: a sweep whose total draw count exceeds the
// per-job bound is rejected up front with a 400, before any work queues.
func TestSweepOversizedJob(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	var sb bytes.Buffer
	sb.WriteString(`{"scenarios":[`)
	for i := 0; i < 216; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%q", fmt.Sprintf("g%d", i))
	}
	sb.WriteString(`],"n":10000}`)
	w := post(t, s, "/v1/sweeps", sb.Bytes())
	if w.Code != http.StatusBadRequest {
		t.Fatalf("oversized sweep: status %d, want 400: %s", w.Code, w.Body.String())
	}
}

// TestSweepCheckpointIsAtomicJSON: the on-disk checkpoint parses and
// carries the normalized spec (method names trimmed, a repeat dropped), so
// operators can inspect jobs with jq and other binaries can resume them.
func TestSweepCheckpointIsAtomicJSON(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 2, StoreDir: dir})
	id := submitSweep(t, s, `{"scenarios":["2a"],"n":1,"methods":[" DPCP-p-EN ","DPCP-p-EN"]}`)
	waitSweepState(t, s, id, sweepDone)

	raw, err := os.ReadFile(filepath.Join(dir, "jobs", id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var cp sweepCheckpoint
	if err := json.Unmarshal(raw, &cp); err != nil {
		t.Fatalf("checkpoint not valid JSON: %v", err)
	}
	if cp.ID != id || cp.State != sweepDone || len(cp.Spec.Methods) != 1 || cp.Spec.Methods[0] != "DPCP-p-EN" {
		t.Errorf("checkpoint %+v: want normalized methods and done state", cp)
	}
	if cp.Spec.N != 1 || cp.Spec.Seed != 2020 {
		t.Errorf("checkpoint spec defaults not applied: %+v", cp.Spec)
	}
	for pi, gp := range cp.Points[0] {
		if gp == nil {
			t.Fatalf("done checkpoint missing point %d", pi)
		}
	}
}
