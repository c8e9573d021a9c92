package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dpcpp/internal/analysis"
	"dpcpp/internal/experiments"
	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
	"dpcpp/internal/taskgen"
)

// newTestServer builds a Server and tears its sweep runner down with the
// test.
func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// testTaskset builds a small contended taskset; shift perturbs WCETs so
// distinct shift values produce distinct content hashes.
func testTaskset(t testing.TB, shift rt.Time) *model.Taskset {
	t.Helper()
	ts := model.NewTaskset(4, 2)
	t0 := model.NewTask(0, 10*rt.Millisecond, 10*rt.Millisecond)
	a := t0.AddVertex(200*rt.Microsecond + shift)
	b := t0.AddVertex(100 * rt.Microsecond)
	c := t0.AddVertex(100 * rt.Microsecond)
	t0.AddEdge(a, b)
	t0.AddEdge(a, c)
	t0.AddRequest(b, 0, 2, 10*rt.Microsecond)
	ts.Add(t0)
	t1 := model.NewTask(1, 5*rt.Millisecond, 5*rt.Millisecond)
	d := t1.AddVertex(150 * rt.Microsecond)
	t1.AddRequest(d, 0, 1, 10*rt.Microsecond)
	t1.AddRequest(d, 1, 1, 5*rt.Microsecond)
	ts.Add(t1)
	if err := ts.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return ts
}

// tasksetJSON serializes a taskset the way a client would ship it.
func tasksetJSON(t testing.TB, ts *model.Taskset) json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := model.EncodeTaskset(&buf, ts); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// post performs one POST against the handler without a network hop.
func post(t testing.TB, s *Server, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func analyzeBody(t testing.TB, ts *model.Taskset, methods ...string) []byte {
	t.Helper()
	body, err := json.Marshal(AnalyzeRequest{
		Taskset: jsonRoundTrip(t, ts), Methods: methods,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// jsonRoundTrip re-decodes a taskset so request bodies carry exactly what
// a remote client would have (no locally-derived state).
func jsonRoundTrip(t testing.TB, ts *model.Taskset) *model.Taskset {
	t.Helper()
	ts2, err := model.DecodeTaskset(bytes.NewReader(tasksetJSON(t, ts)))
	if err != nil {
		t.Fatal(err)
	}
	return ts2
}

func TestAnalyzeSingle(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := testTaskset(t, 0)
	w := post(t, s, "/v1/analyze", analyzeBody(t, ts))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp AnalyzeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if resp.Hash != ts.Hash().String() {
		t.Errorf("hash %q != taskset hash %q", resp.Hash, ts.Hash())
	}
	if len(resp.Results) != len(analysis.Methods()) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(analysis.Methods()))
	}
	for _, m := range analysis.Methods() {
		mr := resp.Results[string(m)]
		if mr == nil {
			t.Fatalf("method %s missing from response", m)
		}
		want := analysis.Test(m, ts, analysis.Options{})
		if mr.Schedulable != want.Schedulable {
			t.Errorf("%s: verdict %v, direct Test says %v", m, mr.Schedulable, want.Schedulable)
		}
	}
}

// TestAnalyzeDeterminism: the served bytes must be exactly what marshaling
// direct analysis.Test results produces — the server adds caching and
// transport, never its own math or formatting.
func TestAnalyzeDeterminism(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})
	ts := testTaskset(t, 0)

	want := &AnalyzeResponse{
		Hash:    ts.Hash().String(),
		Results: make(map[string]*MethodResult),
	}
	for _, m := range analysis.Methods() {
		res := analysis.Test(m, ts, analysis.Options{})
		want.Results[string(m)] = &MethodResult{
			Schedulable: res.Schedulable,
			WCRT:        res.WCRT,
			Rounds:      res.Rounds,
			Reason:      res.Reason,
		}
	}
	wantBytes, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ { // the cache-hit pass must serve identical bytes
		w := post(t, s, "/v1/analyze", analyzeBody(t, ts))
		if w.Code != http.StatusOK {
			t.Fatalf("pass %d: status %d: %s", i, w.Code, w.Body.String())
		}
		got := bytes.TrimSpace(w.Body.Bytes())
		if !bytes.Equal(got, wantBytes) {
			t.Fatalf("pass %d: served bytes differ from direct Test marshaling:\ngot:  %s\nwant: %s",
				i, got, wantBytes)
		}
	}
}

func TestExplainBreakdown(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := testTaskset(t, 0)
	body, _ := json.Marshal(AnalyzeRequest{
		Taskset: jsonRoundTrip(t, ts),
		Methods: []string{string(analysis.DPCPpEP)},
		Explain: true,
	})
	w := post(t, s, "/v1/analyze", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp AnalyzeResponse
	json.Unmarshal(w.Body.Bytes(), &resp)
	mr := resp.Results[string(analysis.DPCPpEP)]
	if mr == nil || len(mr.Explain) != len(ts.Tasks) {
		t.Fatalf("want %d explain breakdowns, got %+v", len(ts.Tasks), mr)
	}
}

func TestCacheHitVsMiss(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	var calls int64
	var mu sync.Mutex
	inner := s.engine.testFn
	s.engine.testFn = func(m analysis.Method, ts *model.Taskset, opts analysis.Options) partition.Result {
		mu.Lock()
		calls++
		mu.Unlock()
		return inner(m, ts, opts)
	}

	body := analyzeBody(t, testTaskset(t, 0), string(analysis.DPCPpEN))
	if w := post(t, s, "/v1/analyze", body); w.Code != http.StatusOK {
		t.Fatalf("miss pass: %d %s", w.Code, w.Body.String())
	}
	mu.Lock()
	afterMiss := calls
	mu.Unlock()
	if afterMiss != 1 {
		t.Fatalf("first request ran %d analyses, want 1", afterMiss)
	}

	// Byte-identical repeat: must be served from cache with zero analyses.
	if w := post(t, s, "/v1/analyze", body); w.Code != http.StatusOK {
		t.Fatalf("hit pass: %d", w.Code)
	}
	// Semantically identical (tasks reordered in the JSON): same content
	// hash, so still a cache hit.
	reordered := testTaskset(t, 0)
	reordered.Tasks[0], reordered.Tasks[1] = reordered.Tasks[1], reordered.Tasks[0]
	if w := post(t, s, "/v1/analyze", analyzeBody(t, reordered, string(analysis.DPCPpEN))); w.Code != http.StatusOK {
		t.Fatalf("reordered pass: %d", w.Code)
	}
	mu.Lock()
	final := calls
	mu.Unlock()
	if final != afterMiss {
		t.Fatalf("cache hits ran %d extra analyses, want 0", final-afterMiss)
	}
	m := s.Metrics()
	if m.CacheHits != 2 || m.CacheMisses != 1 {
		t.Errorf("metrics: hits=%d misses=%d, want 2/1", m.CacheHits, m.CacheMisses)
	}
	// A different taskset must miss.
	if w := post(t, s, "/v1/analyze", analyzeBody(t, testTaskset(t, rt.Microsecond), string(analysis.DPCPpEN))); w.Code != http.StatusOK {
		t.Fatalf("distinct pass: %d", w.Code)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != final+1 {
		t.Errorf("distinct taskset ran %d analyses, want 1", calls-final)
	}
}

// TestCoalescing is the acceptance-criterion test: N concurrent identical
// requests must execute exactly one analysis. The injected testFn blocks
// the single in-flight analysis until every request has arrived at the
// server, so all N demonstrably overlap.
func TestCoalescing(t *testing.T) {
	const n = 16
	s := newTestServer(t, Config{Workers: 4})
	release := make(chan struct{})
	var calls int64
	var mu sync.Mutex
	inner := s.engine.testFn
	s.engine.testFn = func(m analysis.Method, ts *model.Taskset, opts analysis.Options) partition.Result {
		mu.Lock()
		calls++
		mu.Unlock()
		<-release
		return inner(m, ts, opts)
	}

	body := analyzeBody(t, testTaskset(t, 0), string(analysis.DPCPpEN))
	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := post(t, s, "/v1/analyze", body)
			codes[i], bodies[i] = w.Code, w.Body.Bytes()
		}(i)
	}
	// Wait until the other n-1 requests are provably coalesced onto the
	// single blocked analysis, then let it finish. Joining the flight is
	// the last step before sharing the result, so this is race-free: no
	// request can slip past and start a second analysis.
	key := cacheKey(testTaskset(t, 0).Hash(), analysis.DPCPpEN, analysis.Options{}, false)
	deadline := time.Now().Add(10 * time.Second)
	for s.engine.flight.waiting(key) < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests coalesced", s.engine.flight.waiting(key), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	mu.Lock()
	got := calls
	mu.Unlock()
	if got != 1 {
		t.Fatalf("%d concurrent identical requests ran %d analyses, want exactly 1", n, got)
	}
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d served different bytes than request 0", i)
		}
	}
	m := s.Metrics()
	if m.Coalesced+m.CacheHits != n-1 {
		t.Errorf("coalesced=%d + cache_hits=%d, want them to cover the other %d requests",
			m.Coalesced, m.CacheHits, n-1)
	}
}

func TestBatch(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})
	var calls int64
	var mu sync.Mutex
	inner := s.engine.testFn
	s.engine.testFn = func(m analysis.Method, ts *model.Taskset, opts analysis.Options) partition.Result {
		mu.Lock()
		calls++
		mu.Unlock()
		return inner(m, ts, opts)
	}

	a, b := testTaskset(t, 0), testTaskset(t, rt.Microsecond)
	body, _ := json.Marshal(BatchRequest{
		Tasksets: []*model.Taskset{jsonRoundTrip(t, a), jsonRoundTrip(t, b), jsonRoundTrip(t, a)},
		Methods:  []string{string(analysis.DPCPpEP), string(analysis.SPIN)},
	})
	w := post(t, s, "/v1/analyze/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	if resp.Results[0].Hash != a.Hash().String() || resp.Results[1].Hash != b.Hash().String() {
		t.Error("batch results out of request order")
	}
	if resp.Results[2].Hash != resp.Results[0].Hash {
		t.Error("identical tasksets produced different hashes")
	}
	for i, r := range resp.Results {
		if len(r.Results) != 2 {
			t.Errorf("item %d: %d method results, want 2", i, len(r.Results))
		}
	}
	// Two unique tasksets x two methods: the duplicate third taskset must
	// be deduplicated by the cache/coalescer.
	mu.Lock()
	defer mu.Unlock()
	if calls != 4 {
		t.Errorf("batch ran %d analyses, want 4 (duplicate item served from cache)", calls)
	}
}

func TestBackpressure(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxQueue: 3})
	// Oversize: five methods can never fit a queue of 3 — a permanent
	// condition, so a non-retryable 400, not a 429 inviting futile retries.
	w := post(t, s, "/v1/analyze", analyzeBody(t, testTaskset(t, 0)))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("oversize request: status %d, want 400", w.Code)
	}
	if w.Header().Get("Retry-After") != "" {
		t.Error("permanent rejection carries Retry-After")
	}

	// Transient: a blocked in-flight analysis holds the whole queue, so
	// the next request gets the retryable 429.
	s2 := newTestServer(t, Config{Workers: 1, MaxQueue: 1})
	release := make(chan struct{})
	inner := s2.engine.testFn
	s2.engine.testFn = func(m analysis.Method, ts *model.Taskset, opts analysis.Options) partition.Result {
		<-release
		return inner(m, ts, opts)
	}
	first := make(chan int, 1)
	go func() {
		first <- post(t, s2, "/v1/analyze", analyzeBody(t, testTaskset(t, 0), string(analysis.DPCPpEN))).Code
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s2.engine.queued.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never occupied the queue")
		}
		time.Sleep(time.Millisecond)
	}
	w = post(t, s2, "/v1/analyze", analyzeBody(t, testTaskset(t, rt.Microsecond), string(analysis.DPCPpEN)))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated queue: status %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var er errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Code != http.StatusTooManyRequests {
		t.Errorf("unstructured 429 body: %s", w.Body.String())
	}
	if s2.Metrics().Rejected != 1 {
		t.Errorf("rejected counter = %d, want 1", s2.Metrics().Rejected)
	}
	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("blocked request finished with %d", code)
	}
	// With the queue drained the retried request succeeds.
	w = post(t, s2, "/v1/analyze", analyzeBody(t, testTaskset(t, rt.Microsecond), string(analysis.DPCPpEN)))
	if w.Code != http.StatusOK {
		t.Fatalf("retry after drain: status %d", w.Code)
	}
}

// TestCachedServedUnderSaturation: a request whose every result is
// already cached needs zero analysis work, so a saturated admission queue
// must not 429 it — on /v1/analyze, /v1/analyze/batch or
// /v1/analyze/delta, and even when the body is not byte-identical to the
// priming request. A request with one uncached result still gets the 429.
func TestCachedServedUnderSaturation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxQueue: 1})
	en := string(analysis.DPCPpEN)
	primed := testTaskset(t, 0)
	bump := wcetBump(0, 1, 120*rt.Microsecond)
	patched, _, err := model.ApplyPatch(primed, bump)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range []*model.Taskset{primed, patched} {
		if w := post(t, s, "/v1/analyze", analyzeBody(t, ts, en)); w.Code != http.StatusOK {
			t.Fatalf("priming request: %d", w.Code)
		}
	}

	// Saturate the queue with a blocked analysis of a different taskset.
	release := make(chan struct{})
	inner := s.engine.testFn
	s.engine.testFn = func(m analysis.Method, ts *model.Taskset, opts analysis.Options) partition.Result {
		<-release
		return inner(m, ts, opts)
	}
	blocked := make(chan int, 1)
	go func() {
		blocked <- post(t, s, "/v1/analyze", analyzeBody(t, testTaskset(t, rt.Microsecond), en)).Code
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.engine.queued.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never saturated")
		}
		time.Sleep(time.Millisecond)
	}

	// Task order reordered: different bytes (no fast path), same hash.
	reordered := testTaskset(t, 0)
	reordered.Tasks[0], reordered.Tasks[1] = reordered.Tasks[1], reordered.Tasks[0]
	novel := testTaskset(t, 2*rt.Microsecond)
	batch := func(tss ...*model.Taskset) []byte {
		req := BatchRequest{Methods: []string{en}}
		for _, ts := range tss {
			req.Tasksets = append(req.Tasksets, jsonRoundTrip(t, ts))
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	delta := func(p model.Patch) []byte {
		return deltaBody(t, DeltaRequest{BaseTaskset: jsonRoundTrip(t, reordered), Patch: p, Methods: []string{en}})
	}
	for _, tc := range []struct {
		name, path string
		body       []byte
		want       int
	}{
		{"cached analyze", "/v1/analyze", analyzeBody(t, reordered, en), http.StatusOK},
		{"cached batch", "/v1/analyze/batch", batch(reordered, primed), http.StatusOK},
		{"cached delta", "/v1/analyze/delta", delta(bump), http.StatusOK},
		{"novel analyze", "/v1/analyze", analyzeBody(t, novel, en), http.StatusTooManyRequests},
		{"batch with a novel taskset", "/v1/analyze/batch", batch(primed, novel), http.StatusTooManyRequests},
		{"novel delta", "/v1/analyze/delta", delta(wcetBump(0, 1, 130*rt.Microsecond)), http.StatusTooManyRequests},
	} {
		if w := post(t, s, tc.path, tc.body); w.Code != tc.want {
			t.Errorf("%s under saturation: %d %s, want %d", tc.name, w.Code, w.Body.String(), tc.want)
		}
	}
	close(release)
	if code := <-blocked; code != http.StatusOK {
		t.Fatalf("blocked request finished with %d", code)
	}
}

// Tasksets whose Finalize once panicked.
const (
	nullTask    = `{"tasks":[null],"num_resources":0,"num_procs":2}`
	nullVertex  = `{"tasks":[{"id":0,"period":1000,"deadline":1000,"vertices":[null]}],"num_resources":0,"num_procs":2}`
	negResource = `{"tasks":[{"id":0,"period":1000,"deadline":1000,"vertices":[{"id":0,"wcet":100,"requests":{"-1":1}}]}],"num_resources":1,"num_procs":2}`
)

// unusedCS is a valid taskset whose one task lists a CS length for a
// resource no vertex requests. The canonical form drops that length, so
// any value there gives the same hash.
const unusedCS = `{"tasks":[{"id":0,"period":1000,"deadline":1000,"priority":1,"vertices":[{"id":0,"wcet":10}],"cslen":[%d]}],"num_resources":1,"num_procs":2}`

// TestHostileRequests: every malformed body must produce a structured 4xx,
// never a panic or a 500 (the model.Finalize hardening surfaces here). A
// cache never bypasses validation: each row gets the same status and body
// from a cold server and from one whose exact-body and result caches hold
// the valid taskset and every row's valid hash twin.
func TestHostileRequests(t *testing.T) {
	cold := newTestServer(t, Config{Workers: 1, MaxBody: 2048})
	warm := newTestServer(t, Config{Workers: 1, MaxBody: 2048})
	valid := string(tasksetJSON(t, testTaskset(t, 0)))
	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"empty body", "/v1/analyze", "", http.StatusBadRequest},
		{"not json", "/v1/analyze", "GET ME A TASKSET", http.StatusBadRequest},
		{"missing taskset", "/v1/analyze", `{}`, http.StatusBadRequest},
		{"unknown field", "/v1/analyze", `{"taskset":` + valid + `,"bogus":1}`, http.StatusBadRequest},
		{"trailing garbage", "/v1/analyze", `{"taskset":` + valid + `}{"again":true}`, http.StatusBadRequest},
		{"unknown method", "/v1/analyze", `{"taskset":` + valid + `,"methods":["DPCP-q"]}`, http.StatusBadRequest},
		{"bad placement", "/v1/analyze", `{"taskset":` + valid + `,"placement":"best"}`, http.StatusBadRequest},
		{"negative path cap", "/v1/analyze", `{"taskset":` + valid + `,"path_cap":-1}`, http.StatusBadRequest},
		{"hostile vertex id", "/v1/analyze",
			`{"taskset":{"tasks":[{"id":0,"period":1000,"deadline":1000,"vertices":[{"id":9,"wcet":10}]}],"num_resources":0,"num_procs":2}}`,
			http.StatusBadRequest},
		{"negative cslen", "/v1/analyze",
			`{"taskset":{"tasks":[{"id":0,"period":1000,"deadline":1000,"priority":1,"vertices":[{"id":0,"wcet":10,"requests":{"0":1}}],"cslen":[-5]}],"num_resources":1,"num_procs":2}}`,
			http.StatusBadRequest},
		{"negative unused cslen", "/v1/analyze", `{"taskset":` + fmt.Sprintf(unusedCS, -5) + `}`, http.StatusBadRequest},
		{"oversized body", "/v1/analyze", `{"taskset":` + strings.Repeat(" ", 4096) + valid + `}`,
			http.StatusRequestEntityTooLarge},
		{"empty batch", "/v1/analyze/batch", `{"tasksets":[]}`, http.StatusBadRequest},
		{"batch bad item", "/v1/analyze/batch",
			`{"tasksets":[` + valid + `,{"tasks":[],"num_resources":0,"num_procs":0}]}`,
			http.StatusBadRequest},
		// Each of these panicked in Finalize, or got a 200 despite trailing
		// bytes, before the model and decodeBytes rejected them.
		{"null task", "/v1/analyze", `{"taskset":` + nullTask + `}`, http.StatusBadRequest},
		{"null vertex", "/v1/analyze", `{"taskset":` + nullVertex + `}`, http.StatusBadRequest},
		{"negative resource", "/v1/analyze", `{"taskset":` + negResource + `}`, http.StatusBadRequest},
		{"batch null task", "/v1/analyze/batch", `{"tasksets":[` + nullTask + `]}`, http.StatusBadRequest},
		{"delta null vertex", "/v1/analyze/delta", `{"base_taskset":` + nullVertex + `,"patch":{"ops":[]}}`, http.StatusBadRequest},
		{"trailing ]", "/v1/analyze", `{"taskset":` + valid + `}]`, http.StatusBadRequest},
		{"trailing }x", "/v1/analyze", `{"taskset":` + valid + `}}x`, http.StatusBadRequest},
		{"batch trailing ]", "/v1/analyze/batch", `{"tasksets":[` + valid + `]}]`, http.StatusBadRequest},
	}
	for _, body := range []string{valid, fmt.Sprintf(unusedCS, 0)} {
		if w := post(t, warm, "/v1/analyze", []byte(`{"taskset":`+body+`}`)); w.Code != http.StatusOK {
			t.Fatalf("warming: status %d: %s", w.Code, w.Body.String())
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(t, cold, tc.path, []byte(tc.body))
			if w.Code != tc.want {
				t.Fatalf("status %d, want %d; body: %s", w.Code, tc.want, w.Body.String())
			}
			var er errorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error == "" || er.Code != tc.want {
				t.Errorf("error body not structured: %s", w.Body.String())
			}
			ww := post(t, warm, tc.path, []byte(tc.body))
			if ww.Code != w.Code || !bytes.Equal(ww.Body.Bytes(), w.Body.Bytes()) {
				t.Errorf("warm cache: status %d, body %s; cold: status %d, body %s",
					ww.Code, ww.Body.String(), w.Code, w.Body.String())
			}
		})
	}
}

// TestReadBodyLengths: a body is read whole whether or not its length is
// declared, and one over the limit gets its 413 either way. A chunked
// request declares no length (ContentLength -1).
func TestReadBodyLengths(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxBody: 2048})
	valid := analyzeBody(t, testTaskset(t, 0), string(analysis.DPCPpEP))
	oversized := append(bytes.Repeat([]byte(" "), 4096), valid...)
	var want []byte
	for _, tc := range []struct {
		name    string
		body    []byte
		chunked bool
		code    int
	}{
		{"sized", valid, false, http.StatusOK},
		{"chunked", valid, true, http.StatusOK},
		{"sized oversized", oversized, false, http.StatusRequestEntityTooLarge},
		{"chunked oversized", oversized, true, http.StatusRequestEntityTooLarge},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(tc.body))
		if tc.chunked {
			req.ContentLength = -1
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != tc.code {
			t.Fatalf("%s: status %d, want %d; body: %s", tc.name, w.Code, tc.code, w.Body.String())
		}
		if tc.code != http.StatusOK {
			continue
		}
		if want == nil {
			want = w.Body.Bytes()
		} else if !bytes.Equal(w.Body.Bytes(), want) {
			t.Errorf("%s: body %s, want %s", tc.name, w.Body.String(), want)
		}
	}
}

// TestReadBodyOneAllocation: a body of declared length is read into one
// buffer; its spare byte keeps the read that finds EOF from growing it.
func TestReadBodyOneAllocation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	body := bytes.Repeat([]byte("x"), 5000)
	r := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze", r)
	w := httptest.NewRecorder()
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(body)
		got, err := s.readBody(w, req)
		if err != nil || len(got) != len(body) {
			t.Fatalf("readBody: %d bytes, %v", len(got), err)
		}
	})
	if allocs != 1 {
		t.Errorf("readBody allocates %v times per body, want 1", allocs)
	}
}

// TestNegativeRequestKeyMessage: a negative resource key gets Finalize's
// error in its 400, whether the scanner or encoding/json decoded the body.
func TestNegativeRequestKeyMessage(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	const want = "invalid taskset: model: task 0 vertex 0 requests unknown resource -1"
	escaped := strings.Replace(negResource, `"id":0,"period"`, `"id":0,"name":"\u0071","period"`, 1)
	if _, ok := scanAnalyzeRequest([]byte(`{"taskset":` + escaped + `}`)); ok {
		t.Fatal("the escaped name no longer sends the body to encoding/json")
	}
	for _, ts := range []string{negResource, escaped} {
		w := post(t, s, "/v1/analyze", []byte(`{"taskset":`+ts+`}`))
		var er errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || w.Code != http.StatusBadRequest || er.Error != want {
			t.Errorf("%s: status %d, body %s; want 400 with %q", ts, w.Code, w.Body.String(), want)
		}
	}
}

func TestRouting(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/healthz", http.StatusOK},
		{http.MethodGet, "/v1/metrics", http.StatusOK},
		{http.MethodGet, "/v1/analyze", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/grid", http.StatusMethodNotAllowed},
		{http.MethodGet, "/nope", http.StatusNotFound},
	} {
		req := httptest.NewRequest(tc.method, tc.path, nil)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, w.Code, tc.want)
		}
	}
	// None of the above requests bears analysis work, so the traffic
	// counter must stay untouched (liveness pollers would otherwise
	// inflate it).
	m := s.Metrics()
	if m.Requests != 0 || m.Workers != 1 {
		t.Errorf("metrics after probes only: %+v", m)
	}
}

// TestRequestCounterCountsAnalysisBearingOnly pins the requests metric:
// /healthz and /v1/metrics probes are free, while every analysis-bearing
// endpoint (analyze, batch, grid, sweep submission) counts exactly once.
func TestRequestCounterCountsAnalysisBearingOnly(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	get := func(path string) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		s.ServeHTTP(httptest.NewRecorder(), req)
	}
	for i := 0; i < 7; i++ {
		get("/healthz")
		get("/v1/metrics")
	}
	if m := s.Metrics(); m.Requests != 0 {
		t.Fatalf("probes counted as traffic: requests=%d", m.Requests)
	}

	post(t, s, "/v1/analyze", analyzeBody(t, testTaskset(t, 0), string(analysis.DPCPpEN)))
	if m := s.Metrics(); m.Requests != 1 {
		t.Fatalf("after analyze: requests=%d, want 1", m.Requests)
	}
	batch, _ := json.Marshal(BatchRequest{
		Tasksets: []*model.Taskset{jsonRoundTrip(t, testTaskset(t, 0))},
		Methods:  []string{string(analysis.DPCPpEN)},
	})
	post(t, s, "/v1/analyze/batch", batch)
	get("/v1/grid?scenario=2a&n=1&methods=DPCP-p-EN") // 400-free, runs the sweep
	post(t, s, "/v1/sweeps", []byte(`{"scenarios":["2a"],"n":1,"methods":["DPCP-p-EN"]}`))
	get("/v1/sweeps")
	if m := s.Metrics(); m.Requests != 4 {
		t.Fatalf("after analyze+batch+grid+sweep submit (+probes): requests=%d, want 4", m.Requests)
	}
}

// TestFastPathHitAccounting pins the exact-body fast path's cache-hit
// accounting to answer's convention: one hit per method result served,
// not one per request.
func TestFastPathHitAccounting(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := testTaskset(t, 0)
	body := analyzeBody(t, ts) // all five methods

	if w := post(t, s, "/v1/analyze", body); w.Code != http.StatusOK {
		t.Fatalf("priming request: %d", w.Code)
	}
	base := s.Metrics().CacheHits

	// Byte-identical repeat: served by the fast path, five results.
	if w := post(t, s, "/v1/analyze", body); w.Code != http.StatusOK {
		t.Fatalf("fast-path request: %d", w.Code)
	}
	afterFast := s.Metrics().CacheHits
	if got := afterFast - base; got != int64(len(analysis.Methods())) {
		t.Errorf("fast-path repeat counted %d hits, want %d (one per method)",
			got, len(analysis.Methods()))
	}

	// Semantically identical but byte-different (reordered tasks): answer
	// must count the same way, so the two paths are indistinguishable in
	// the metrics.
	reordered := testTaskset(t, 0)
	reordered.Tasks[0], reordered.Tasks[1] = reordered.Tasks[1], reordered.Tasks[0]
	if w := post(t, s, "/v1/analyze", analyzeBody(t, reordered)); w.Code != http.StatusOK {
		t.Fatalf("result-cache request: %d", w.Code)
	}
	if got := s.Metrics().CacheHits - afterFast; got != int64(len(analysis.Methods())) {
		t.Errorf("result-cache repeat counted %d hits, want %d — fast path and answer disagree",
			got, len(analysis.Methods()))
	}
}

// TestRepeatedMethodsAnalyzedOnce: a method listed more than once is
// analyzed, counted and reported once.
func TestRepeatedMethodsAnalyzedOnce(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ep := string(analysis.DPCPpEP)
	body := analyzeBody(t, testTaskset(t, 0), ep, ep, ep)
	for pass, hits := range []int64{0, 1} {
		w := post(t, s, "/v1/analyze", body)
		if w.Code != http.StatusOK {
			t.Fatalf("pass %d: status %d: %s", pass, w.Code, w.Body.String())
		}
		var resp AnalyzeResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != 1 || resp.Results[ep] == nil {
			t.Errorf("pass %d: results %v, want one for %s", pass, resp.Results, ep)
		}
		m := s.Metrics()
		if m.Analyses != 1 || m.CacheMisses != 1 || m.Coalesced != 0 || m.CacheHits != hits {
			t.Errorf("pass %d: analyses=%d misses=%d coalesced=%d hits=%d, want 1/1/0/%d",
				pass, m.Analyses, m.CacheMisses, m.Coalesced, m.CacheHits, hits)
		}
	}
}

// FuzzAnalyzeRequest: no request body may reach a panic anywhere under the
// handler — the fuzzer's job is proving the 4xx path is total. And
// whenever scanAnalyzeRequest accepts a body, decodeBytes (strict
// encoding/json) accepts it too and decodes a reflect.DeepEqual request,
// nil versus empty slices and maps included. Seeds include the hostile
// documents the model fuzzer found, a hostile full-envelope request, the
// schedd golden request and the shapes the scanner must decline.
func FuzzAnalyzeRequest(f *testing.F) {
	const small = `{"taskset":{"tasks":[{"id":0,"period":1000,"deadline":1000,"vertices":[{"id":0,"wcet":100,"requests":{"0":1}}],"edges":[],"cslen":[10]}],"num_resources":1,"num_procs":2},"methods":["DPCP-p-EN"]}`
	golden, err := os.ReadFile("../../cmd/schedd/testdata/fig2a_request.json")
	if err != nil {
		f.Fatal(err)
	}
	var padded bytes.Buffer
	if err := json.Indent(&padded, golden, "\r", "\t "); err != nil {
		f.Fatal(err)
	}
	for _, body := range []string{
		`{"taskset":{"tasks":[{"id":0,"period":1000,"deadline":1000,"vertices":[{"id":0,"wcet":100}]}],"num_resources":0,"num_procs":2}}`,
		`{"taskset":{"tasks":[],"num_resources":-1,"num_procs":2}}`,
		`{"taskset":{"tasks":[{"id":0,"period":1000,"deadline":1000,"vertices":[{"id":7,"wcet":100}]}],"num_resources":0,"num_procs":2},"methods":["DPCP-p-EP"],"path_cap":-99,"placement":"zzz","explain":true}`,
		`{"taskset":{"tasks":[{"id":0,"period":1000,"deadline":1000,"priority":1,"vertices":[{"id":0,"wcet":100,"requests":{"0":2}}],"cslen":[-5]}],"num_resources":1,"num_procs":2}}`,
		`{"taskset":` + nullTask + `}`,
		`{"taskset":` + nullVertex + `}`,
		`{"taskset":` + negResource + `}`,
		string(golden),
		"\n " + padded.String() + "\t\r\n",
		small,
		strings.Replace(small, `"wcet"`, `"WCET"`, 1),
		strings.Replace(small, `"id":0,"period"`, `"id":0,"id":0,"period"`, 1),
		strings.Replace(small, `{"0":1}`, `{"+0":1}`, 1),
		strings.Replace(small, `"id":0,"period"`, `"id":0,"name":"\u0071","period"`, 1),
		strings.Replace(small, `"wcet":100`, `"wcet":1e3`, 1),
		strings.Replace(small, `"id":0,"period"`, `"id":-0,"period"`, 1),
		strings.Replace(small, `"methods":["DPCP-p-EN"]`, `"methods":null`, 1),
		strings.Replace(small, `"methods":["DPCP-p-EN"]`, `"methods":[],"path_cap":0,"placement":"","explain":false,"timeout_ms":0`, 1),
		strings.Replace(small, `{"0":1}`, `{}`, 1),
		strings.Replace(small, `{"0":1}`, `{"2":1,"10":0,"0":1}`, 1),
		small + `]`,
		small + `}x`,
	} {
		f.Add([]byte(body))
	}
	s := newTestServer(f, Config{Workers: 1, MaxBody: 1 << 16})
	f.Fuzz(func(t *testing.T, body []byte) {
		if req, ok := scanAnalyzeRequest(body); ok {
			var want AnalyzeRequest
			if err := decodeBytes(httptest.NewRecorder(), body, &want); err != nil {
				t.Fatalf("scanner accepted what encoding/json rejects (%v): %q", err, body)
			}
			if !reflect.DeepEqual(req, want) {
				t.Fatalf("scanned %+v, encoding/json decodes %+v from %q", req, want, body)
			}
		}
		w := post(t, s, "/v1/analyze", body)
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests:
		default:
			t.Fatalf("unexpected status %d for body %q", w.Code, body)
		}
	})
}

// serverAnalyzeCase is one request shape of BenchmarkServerAnalyze:
// body(tb, i) is the i-th request's body, and body(tb, -1) warms the
// caches of a -hit or -semantic case.
type serverAnalyzeCase struct {
	name string
	body func(tb testing.TB, i int) []byte
}

// serverAnalyzeCases returns BenchmarkServerAnalyze's request shapes,
// shared with TestCacheHitAllocs.
func serverAnalyzeCases() []serverAnalyzeCase {
	fig2aSet := func(tb testing.TB, seed int64) *model.Taskset {
		tb.Helper()
		scen, err := taskgen.Fig2Scenario("2a")
		if err != nil {
			tb.Fatal(err)
		}
		g := taskgen.NewGenerator(scen.DefaultStructure())
		ts, err := experiments.GenerateSample(g, seed, 8)
		if err != nil {
			tb.Fatal(err)
		}
		return ts
	}
	encode := func(tb testing.TB, ts *model.Taskset) []byte {
		tb.Helper()
		body, err := json.Marshal(AnalyzeRequest{Taskset: ts, Methods: []string{string(analysis.DPCPpEP)}})
		if err != nil {
			tb.Fatal(err)
		}
		return body
	}
	var semantic *model.Taskset
	return []serverAnalyzeCase{
		{"tiny-cold", func(tb testing.TB, i int) []byte {
			return analyzeBody(tb, testTaskset(tb, rt.Time(i+1)), string(analysis.DPCPpEP))
		}},
		{"tiny-hit", func(tb testing.TB, i int) []byte {
			return analyzeBody(tb, testTaskset(tb, 0), string(analysis.DPCPpEP))
		}},
		{"fig2a-cold", func(tb testing.TB, i int) []byte { return encode(tb, fig2aSet(tb, int64(i))) }},
		{"fig2a-hit", func(tb testing.TB, i int) []byte { return encode(tb, fig2aSet(tb, 1)) }},
		{"fig2a-semantic", func(tb testing.TB, i int) []byte {
			if semantic == nil {
				semantic = fig2aSet(tb, 1)
			}
			return encode(tb, renamedRotation(semantic, i))
		}},
	}
}

// BenchmarkServerAnalyze measures the full request path, cold (cache
// miss, one analysis per request) vs hit (content-addressed cache). The
// tiny taskset isolates the transport floor; the fig2a family uses the
// paper's Sec. VII-A synthesis at util 8, where the cache turns
// millisecond analyses into microsecond lookups. fig2a-semantic is the
// serve-repeat semantic hit: every body is new (tasks rotated, the first
// one renamed), so it misses the exact-body cache and pays decode,
// Finalize and Hash before the result cache answers.
func BenchmarkServerAnalyze(b *testing.B) {
	for _, bc := range serverAnalyzeCases() {
		b.Run(bc.name, func(b *testing.B) {
			s := newTestServer(b, Config{Workers: 1, CacheSize: 1 << 20, MaxQueue: 1 << 30})
			bodies := make([][]byte, b.N)
			for i := range bodies {
				bodies[i] = bc.body(b, i)
			}
			if !strings.HasSuffix(bc.name, "-cold") {
				post(b, s, "/v1/analyze", bc.body(b, -1)) // warm the cache
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := post(b, s, "/v1/analyze", bodies[i])
				if w.Code != http.StatusOK {
					b.Fatalf("status %d", w.Code)
				}
			}
		})
	}
}
