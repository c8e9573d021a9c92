// Package server turns the schedulability engine into a long-running
// service: an HTTP JSON API over the same pure Test(taskset, method)
// function the library and CLI expose.
//
// # Architecture
//
// The layering is engine → pool → server:
//
//   - internal/analysis remains the single source of verdicts; the server
//     never reimplements any analysis.
//   - internal/experiments.ParallelFor is the only scheduling primitive:
//     batch fan-out and grid sweeps drain through it, exactly like the
//     CLI's grids and the audit.
//   - This package adds the service concerns on top: canonical
//     content-addressed caching (model.Taskset.Hash), request coalescing
//     (singleflight), bounded admission with backpressure (429 when the
//     job queue is full), structured 4xx errors for hostile input, and
//     metrics.
//
// Because Test is a pure deterministic function of the canonical taskset,
// identical requests — byte-identical or merely semantically identical —
// are served from the LRU result cache, and N concurrent identical
// misses cost exactly one analysis.
//
// # Endpoints
//
//	POST /v1/analyze        one taskset, one or all methods
//	POST /v1/analyze/batch  many tasksets, shared options
//	POST /v1/analyze/delta  what-if query: base hash + patch, analyzed
//	                        against a retained base taskset
//	GET  /v1/grid           streaming acceptance-curve points (NDJSON)
//	POST /v1/sweeps         submit an asynchronous multi-scenario sweep job
//	GET  /v1/sweeps         list sweep jobs
//	GET  /v1/sweeps/{id}    sweep-job progress
//	GET  /v1/sweeps/{id}/results  completed acceptance curves
//	DELETE /v1/sweeps/{id}  cancel and forget a sweep job
//	GET  /v1/metrics        cache/coalescing/admission/store counters (JSON)
//	GET  /metrics           the same state as Prometheus text exposition,
//	                        plus request/stage latency histograms
//	GET  /v1/debug/traces   recent per-request trace spans, newest first
//	GET  /healthz           liveness (200 even when degraded; see body)
//
// # Observability
//
// Every request is traced: a generated request ID is echoed as
// X-Request-ID, per-phase spans (cache probe, singleflight wait, store
// read, analysis) are captured into a bounded ring served by
// GET /v1/debug/traces and summarized in a Server-Timing response header.
// Latencies feed lock-free fixed-bucket histograms — per endpoint, per
// analysis, and per pipeline stage (view enumeration, fixed-point
// iteration, partition rounds) via allocation-free scratch hooks — all
// exported at GET /metrics in Prometheus text format. Structured logs
// (Config.Logger) carry the request ID plus sweep-job lifecycle and
// store degraded-mode transitions; access logging is sampled
// (Config.AccessLogEvery).
//
// # Deadlines and cancellation
//
// Every handler threads its request context through the engine: a client
// that disconnects while its analysis is queued frees its worker slot and
// queue claim immediately (counted in the canceled metric), and an
// explicit budget — the server-wide Config.RequestTimeout or a request's
// timeout_ms field, whichever is tighter — turns an overrunning analysis
// into a structured 503 timeout verdict instead of an open-ended wait.
// Coalesced waiters abandon without cancelling the shared computation, so
// the result still lands in the cache for the next caller.
//
// # Durability
//
// With Config.StoreDir set, results write through to an on-disk
// content-addressed store (internal/store) and sweep jobs checkpoint their
// per-point progress, so a restarted daemon keeps its cache warm and
// resumes unfinished sweeps instead of dropping them (see jobs.go). Store
// access sits behind a circuit breaker: a failing disk opens it after
// Config.StoreBreakerThreshold consecutive errors, requests skip the disk
// and recompute (degraded mode, surfaced via /healthz and /v1/metrics),
// and a periodic probe closes it when the disk recovers.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dpcpp/internal/analysis"
	"dpcpp/internal/experiments"
	"dpcpp/internal/model"
	"dpcpp/internal/obs"
	"dpcpp/internal/store"
)

// Defaults applied by Config.normalized.
const (
	DefaultCacheSize = 4096
	DefaultMaxBody   = 8 << 20 // 8 MiB of taskset JSON
	// DefaultBreakerThreshold is the consecutive store failures that open
	// the circuit breaker; DefaultBreakerProbe how often an open breaker
	// admits one recovery probe.
	DefaultBreakerThreshold = 8
	DefaultBreakerProbe     = 5 * time.Second
	// DefaultWriteDeadline is the per-write-operation deadline applied via
	// http.ResponseController: each response write (and each NDJSON line
	// of a stream) must complete within it, so a stalled reader cannot pin
	// a connection while arbitrarily long streams stay alive as long as
	// they make progress.
	DefaultWriteDeadline = time.Minute
)

// Config tunes a Server.
type Config struct {
	// Workers bounds concurrently executing analyses (<= 0 = GOMAXPROCS).
	Workers int
	// CacheSize is the result cache capacity in entries (<= 0 = 4096).
	CacheSize int
	// MaxBody caps request bodies in bytes (<= 0 = 8 MiB); larger bodies
	// get 413 before any decoding work.
	MaxBody int64
	// MaxQueue bounds admitted-but-unfinished analysis jobs: the uncached
	// (taskset, method) results of an analyze, batch or delta request, and
	// every sample of a grid stream. A request whose jobs cannot fit while
	// the server is busy gets 429 + Retry-After; one that could never fit
	// even on an idle server gets a non-retryable 400; a request whose
	// results are all cached is never rejected (<= 0 = max(1024 * workers,
	// 65536), large enough that every documented grid/batch request fits
	// on a 1-core host).
	MaxQueue int
	// RequestTimeout bounds the analysis latency of one /v1/analyze,
	// /v1/analyze/batch or /v1/analyze/delta request; past it the request
	// gets a structured 503 timeout verdict and its queued work is
	// abandoned. 0 disables the server-wide bound (a request's timeout_ms
	// still applies).
	RequestTimeout time.Duration
	// WriteDeadline is the per-write deadline for response writes
	// (<= 0 = 1 minute); see DefaultWriteDeadline.
	WriteDeadline time.Duration
	// StoreDir, when non-empty, roots the persistent layer: an on-disk
	// content-addressed result store backing the in-memory LRU, plus the
	// sweep-job checkpoints under StoreDir/jobs, which are fsynced and
	// whose unfinished jobs re-queue at startup. Empty disables
	// persistence (results live only in the LRU, sweep jobs only in
	// memory).
	StoreDir string
	// StoreBreakerThreshold is the consecutive store failures that open
	// the store circuit breaker (<= 0 = 8); StoreBreakerProbe is the
	// interval between recovery probes while open (<= 0 = 5s).
	StoreBreakerThreshold int
	StoreBreakerProbe     time.Duration
	// FaultWrites > 0 makes the store's first FaultWrites writes fail with
	// a synthetic I/O error — built-in fault injection for chaos and smoke
	// testing of degraded mode through the real binary. Never set it in
	// production.
	FaultWrites int
	// Logger receives the server's structured logs (request access lines,
	// sweep-job lifecycle, degraded-mode transitions). Nil discards them —
	// the server never writes to a default destination on its own.
	Logger *slog.Logger
	// AccessLogEvery samples the access log: every N-th completed request
	// emits one structured line on Logger. 0 (the default) disables access
	// logging; 1 logs every request.
	AccessLogEvery int

	// storeHooks, when non-nil, is installed on the opened store before
	// any checkpoint is read or written; the chaos suite schedules faults
	// through it (package-internal, tests only).
	storeHooks *store.Hooks
}

func (c Config) normalized() Config {
	c.Workers = experiments.Workers(c.Workers)
	if c.CacheSize <= 0 {
		c.CacheSize = DefaultCacheSize
	}
	if c.MaxBody <= 0 {
		c.MaxBody = DefaultMaxBody
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 1024 * c.Workers
		if c.MaxQueue < 65536 {
			c.MaxQueue = 65536
		}
	}
	if c.WriteDeadline <= 0 {
		c.WriteDeadline = DefaultWriteDeadline
	}
	if c.StoreBreakerThreshold <= 0 {
		c.StoreBreakerThreshold = DefaultBreakerThreshold
	}
	if c.StoreBreakerProbe <= 0 {
		c.StoreBreakerProbe = DefaultBreakerProbe
	}
	return c
}

// fastResponse is one exact-body cache entry: the serialized response plus
// how many method results it carries, so fast-path hit accounting matches
// answer's (one cache hit per method, not per request).
type fastResponse struct {
	body    []byte
	methods int
}

// Server is the http.Handler exposing the analysis service.
type Server struct {
	cfg    Config
	engine *engine
	mux    *http.ServeMux
	jobs   *jobRegistry
	// fast serves byte-identical repeats of /v1/analyze bodies without
	// decoding, validating or hashing the taskset again: the stored
	// response keyed by the SHA-256 of the raw body. Real fleets re-submit
	// literally identical requests, and the response is a pure function of
	// the body, so this is safe and turns the hit path into a hash plus a
	// write.
	fast *lru[fastResponse]
	// obs is the observability layer: base logger, Prometheus registry,
	// request-trace ring and per-endpoint latency histograms (see obs.go).
	obs *serverObs
}

// New builds a Server. It is ready to serve immediately; wire it into an
// http.Server for listening and graceful shutdown (see cmd/schedd). With
// cfg.StoreDir set, it opens the persistent result store and loads
// checkpointed sweep jobs, re-queueing unfinished ones. Call Close on
// shutdown to checkpoint and stop the sweep runner.
func New(cfg Config) (*Server, error) {
	cfg = cfg.normalized()
	var st *store.Store
	var br *store.Breaker
	if cfg.StoreDir != "" {
		var err error
		if st, err = store.Open(cfg.StoreDir); err != nil {
			return nil, err
		}
		switch {
		case cfg.storeHooks != nil:
			st.SetHooks(cfg.storeHooks)
		case cfg.FaultWrites > 0:
			st.SetHooks(failFirstWrites(cfg.FaultWrites))
		}
		br = store.NewBreaker(cfg.StoreBreakerThreshold, cfg.StoreBreakerProbe)
	}
	reg := obs.NewRegistry()
	s := &Server{
		cfg:    cfg,
		engine: newEngine(reg, cfg.Workers, cfg.CacheSize, int64(cfg.MaxQueue), st, br),
		mux:    http.NewServeMux(),
		fast:   newLRU[fastResponse](cfg.CacheSize),
		obs:    newServerObs(reg, cfg.Logger, cfg.AccessLogEvery),
	}
	if br != nil {
		s.observeBreaker(br)
	}
	var err error
	if s.jobs, err = newJobRegistry(s, st); err != nil {
		return nil, err
	}
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/analyze/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/analyze/delta", s.handleDelta)
	s.mux.HandleFunc("GET /v1/grid", s.handleGrid)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	s.mux.HandleFunc("GET /v1/sweeps", s.handleSweepList)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepStatus)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleSweepDelete)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/results", s.handleSweepResults)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics", s.handlePromMetrics)
	s.mux.HandleFunc("GET /v1/debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

// failFirstWrites builds the Config.FaultWrites hook: the first n atomic
// writes fail with a synthetic EIO-style error, later ones succeed.
func failFirstWrites(n int) *store.Hooks {
	var mu sync.Mutex
	left := n
	return &store.Hooks{BeforeWrite: func(path string) error {
		mu.Lock()
		defer mu.Unlock()
		if left > 0 {
			left--
			return fmt.Errorf("injected write fault (%s): input/output error", path)
		}
		return nil
	}}
}

// Close stops the sweep-job runner: the in-flight job stops at its next
// point boundary, its progress is checkpointed (when a store is
// configured), and Close returns once the runner has exited. In-flight
// HTTP requests are the http.Server's to drain, not Close's.
func (s *Server) Close() { s.jobs.close() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Body != nil {
		// The body cap is the first hardening layer: nothing past it ever
		// reaches the JSON decoder, and oversized bodies fail with a
		// structured 413 instead of feeding the model layer unbounded
		// input.
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	}
	// One write deadline covers simple JSON responses; streaming handlers
	// re-arm it per line so long streams stay alive while a stalled reader
	// still cannot pin the connection (http.Server.WriteTimeout would kill
	// both).
	s.bumpWriteDeadline(w)
	s.observe(w, r)
}

// bumpWriteDeadline extends the connection's write deadline by the
// configured per-write budget. Unsupported writers (httptest recorders,
// some middleware) are fine: the deadline is a hardening layer, not a
// correctness dependency.
func (s *Server) bumpWriteDeadline(w http.ResponseWriter) {
	if s.cfg.WriteDeadline <= 0 {
		return
	}
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.WriteDeadline))
}

// Metrics returns a snapshot of the service counters: the GET /v1/metrics
// body, decoded.
func (s *Server) Metrics() Metrics {
	var b bytes.Buffer
	s.obs.reg.WriteJSON(&b) // writes to a bytes.Buffer cannot fail
	var m Metrics
	if err := json.Unmarshal(b.Bytes(), &m); err != nil {
		panic("server: metric registry JSON does not decode into Metrics: " + err.Error())
	}
	return m
}

// healthResponse is the body of GET /healthz. The endpoint stays 200 even
// in degraded mode — the process is alive and serving; Degraded tells
// operators (and load balancers that read bodies) that the persistent
// store is being bypassed and durability is reduced.
type healthResponse struct {
	OK         bool   `json:"ok"`
	Degraded   bool   `json:"degraded,omitempty"`
	StoreState string `json:"store_state,omitempty"`
	// Build identifies the serving binary (module version, VCS revision,
	// Go toolchain), so operators can tell which build answered.
	Build obs.Build `json:"build"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.engine.br.State()
	writeJSON(w, http.StatusOK, healthResponse{
		OK:         true,
		Degraded:   st == store.BreakerOpen || st == store.BreakerHalfOpen,
		StoreState: st,
		Build:      obs.BuildInfo(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.obs.reg.WriteJSON(w) // nothing useful to do on a client that went away
}

// requestCtx derives the analysis context of one request: the client's
// context (so a disconnect cancels queued work) bounded by the tighter of
// the server-wide RequestTimeout and the request's own timeout_ms.
func (s *Server) requestCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.RequestTimeout
	if timeoutMS > 0 {
		if req := time.Duration(timeoutMS) * time.Millisecond; d <= 0 || req < d {
			d = req
		}
	}
	if d <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d)
}

// finishAnalysis maps an aborted analysis to its response: a deadline
// overrun gets the structured 503 timeout verdict; a vanished client gets
// nothing (there is no one to write to). Reports whether the handler
// should continue with a successful response.
func (s *Server) finishAnalysis(w http.ResponseWriter, err error) bool {
	if err == nil {
		return true
	}
	if errors.Is(err, context.DeadlineExceeded) {
		s.writeTimeout(w)
	}
	return false
}

// readBody reads the whole request body, mapping a MaxBytesReader overrun
// to a 413 and any other read failure to a 400. A body of known length is
// read into one buffer of that length, capped at the body limit, plus one
// spare byte so that the read that finds EOF does not grow it. A body of
// unknown length (chunked) starts at 512 bytes, as io.ReadAll does.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	size := int64(512)
	if n := r.ContentLength; n >= 0 {
		size = min(n, s.cfg.MaxBody) + 1
	}
	body, err := readSized(r.Body, size)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooLarge.Limit)
		} else {
			writeError(w, http.StatusBadRequest, "reading request: %v", err)
		}
	}
	return body, err
}

// readSized is io.ReadAll starting from a buffer of the given capacity.
func readSized(r io.Reader, size int64) ([]byte, error) {
	b := make([]byte, 0, size)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// decodeBody reads the request body and decodes it with decodeBytes.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) error {
	body, err := s.readBody(w, r)
	if err != nil {
		return err
	}
	return decodeBytes(w, body, dst)
}

// decodeBytes decodes one JSON document into dst with encoding/json and
// the request-boundary hardening: unknown fields and any byte but JSON
// whitespace after the document are rejected (400); the body size cap is
// readBody's. It is the only decoder of batch, delta and sweep bodies, and
// of every analyze body that scanAnalyzeRequest declines. The taskset
// itself is then validated by model.Finalize, which is hardened against
// hostile documents — no panic path is reachable from a request body.
func decodeBytes(w http.ResponseWriter, body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, "malformed request: %v", err)
		return err
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) != 0 {
		err := fmt.Errorf("trailing data after JSON document")
		writeError(w, http.StatusBadRequest, "%v", err)
		return err
	}
	return nil
}

// analyzeKeys are AnalyzeRequest's JSON names, in field order.
var analyzeKeys = []string{"taskset", "methods", "path_cap", "placement", "explain", "timeout_ms"}

// scanners recycles model.Scanners, whose staging buffers grow to the
// largest arrays of a request.
var scanners = sync.Pool{New: func() any { return new(model.Scanner) }}

// scanAnalyzeRequest decodes an analyze body with model.Scanner, which
// skips encoding/json's reflection for the common shape of a request. It
// reports false, with a zero request, when the scanner declines; the
// caller then decodes the body with decodeBytes, so encoding/json alone
// judges (and words the 400 for) anything unusual. An accepted body
// yields exactly the request decodeBytes would.
func scanAnalyzeRequest(body []byte) (AnalyzeRequest, bool) {
	s := scanners.Get().(*model.Scanner)
	s.Reset(body)
	defer func() {
		s.Reset(nil)
		scanners.Put(s)
	}()
	var req AnalyzeRequest
	var seen uint64
	for {
		switch s.Key(analyzeKeys, &seen) {
		case 0:
			req.Taskset = s.Taskset()
		case 1:
			req.Methods = s.Strings()
		case 2:
			req.PathCap = s.Int()
		case 3:
			req.Placement = s.Str()
		case 4:
			req.Explain = s.Bool()
		case 5:
			req.TimeoutMS = s.Int64()
		default:
			if !s.End() {
				return AnalyzeRequest{}, false
			}
			return req, true
		}
	}
}

// finalizeTaskset validates a decoded taskset, translating model's
// rejection into a structured 400 with the taskset's batch position.
func finalizeTaskset(w http.ResponseWriter, ts *model.Taskset, pos string) bool {
	if ts == nil {
		writeError(w, http.StatusBadRequest, "missing taskset%s", pos)
		return false
	}
	if err := ts.Finalize(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid taskset%s: %v", pos, err)
		return false
	}
	return true
}

// handleAnalyze serves POST /v1/analyze. A byte-identical repeat is
// answered from the exact-body cache. Any other body is decoded by
// scanAnalyzeRequest, or by decodeBytes when the scanner declines, then
// finalized, hashed and answered from the result cache or an analysis.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.engine.requests.Add(1)
	body, err := s.readBody(w, r)
	if err != nil {
		return
	}
	bodyKey := sha256.Sum256(body)
	if resp, ok := s.fast.get(string(bodyKey[:])); ok {
		// One hit per method result served, exactly like answer: the fast
		// path is an optimization of the cached path, not a separate
		// accounting regime.
		s.engine.cacheHits.Add(int64(resp.methods))
		w.Header().Set("Content-Type", "application/json")
		w.Write(resp.body)
		return
	}

	req, ok := scanAnalyzeRequest(body)
	if !ok && decodeBytes(w, body, &req) != nil {
		return
	}
	ms, opts, ok := s.validateOptions(w, req.Methods, req.PathCap, req.Placement)
	if !ok || !finalizeTaskset(w, req.Taskset, "") {
		return
	}
	h := req.Taskset.Hash()
	qs := []query{{hash: h, ts: req.Taskset, results: make(map[string]*MethodResult, len(ms))}}
	if !s.answer(w, r, req.TimeoutMS, qs, ms, opts, req.Explain) {
		return
	}
	resp := &AnalyzeResponse{Hash: h.String(), Results: qs[0].results}

	out, err := json.Marshal(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	out = append(out, '\n') // match json.Encoder framing everywhere else
	s.fast.add(string(bodyKey[:]), fastResponse{body: out, methods: len(ms)})
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.engine.requests.Add(1)
	var req BatchRequest
	if s.decodeBody(w, r, &req) != nil {
		return
	}
	ms, opts, ok := s.validateOptions(w, req.Methods, req.PathCap, req.Placement)
	if !ok {
		return
	}
	if len(req.Tasksets) == 0 {
		writeError(w, http.StatusBadRequest, "empty tasksets")
		return
	}
	qs := make([]query, len(req.Tasksets))
	for i, ts := range req.Tasksets {
		if !finalizeTaskset(w, ts, fmt.Sprintf(" at index %d", i)) {
			return
		}
		qs[i] = query{hash: ts.Hash(), ts: ts, results: make(map[string]*MethodResult, len(ms))}
	}
	if !s.answer(w, r, req.TimeoutMS, qs, ms, opts, false) {
		return
	}
	resp := BatchResponse{Results: make([]*AnalyzeResponse, len(qs))}
	for i, q := range qs {
		resp.Results[i] = &AnalyzeResponse{Hash: q.hash.String(), Results: q.results}
	}
	writeJSON(w, http.StatusOK, resp)
}

// query is one finalized, hashed taskset of a request. answer fills
// results with one entry per requested method and, when analyzed is
// non-nil (one flag per method), marks the methods whose analysis this
// request's own flight ran.
type query struct {
	hash     model.Hash
	ts       *model.Taskset
	results  map[string]*MethodResult
	analyzed []bool
}

// answer is the one answer path of /v1/analyze, /v1/analyze/batch and
// /v1/analyze/delta. It probes the result cache for every (query, method)
// and admits only the misses, so a request that needs no analysis is never
// 429'd and the queue bound counts real work. The misses fan out through
// engine.analyze on at most Config.Workers goroutines, or on one per
// method for a single query. answer writes the rejection or timeout
// response itself and reports whether the handler should write a
// successful one: the first context error aborts the request, since
// partial results are never served.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, timeoutMS int64,
	qs []query, ms []analysis.Method, opts analysis.Options, explain bool) bool {

	// A miss copies its query's taskset and carries the key its probe
	// built, so the fan-out closure never captures qs and a handler's
	// one-query slice stays off the heap.
	type miss struct {
		key      string
		ts       *model.Taskset
		q, m     int
		explain  bool
		mr       *MethodResult
		analyzed bool
		err      error
	}
	var misses []miss
	hits := 0
	for qi := range qs {
		q := &qs[qi]
		for mi, m := range ms {
			// Only DPCP-p-EP results carry a breakdown, so explain forks
			// no other method's key or analysis.
			ex := explain && m == analysis.DPCPpEP
			if key, mr, ok := s.engine.probe(q.hash, m, opts, ex); ok {
				q.results[string(m)] = mr
				hits++
			} else {
				misses = append(misses, miss{key: key, ts: q.ts, q: qi, m: mi, explain: ex})
			}
		}
	}
	if len(misses) > 0 {
		if !s.admit(w, len(misses)) {
			return false
		}
		defer s.engine.release(len(misses))
	}
	// One hit per method result served; analyze counts the misses.
	s.engine.cacheHits.Add(int64(hits))
	if len(misses) == 0 {
		return true
	}

	ctx, cancel := s.requestCtx(r, timeoutMS)
	defer cancel()
	run := func(_, k int) {
		x := &misses[k]
		// A dead client stops admitting new analyses; the remaining
		// misses drain without work.
		if x.err = ctx.Err(); x.err == nil {
			x.mr, x.analyzed, x.err = s.engine.analyze(ctx, x.key, x.ts, ms[x.m], opts, x.explain)
		}
	}
	workers := s.cfg.Workers
	if len(qs) == 1 {
		workers = len(misses)
	}
	if len(misses) == 1 {
		run(0, 0)
	} else {
		experiments.ParallelFor(workers, len(misses), run)
	}
	for _, x := range misses {
		if !s.finishAnalysis(w, x.err) {
			return false
		}
		q := &qs[x.q]
		q.results[string(ms[x.m])] = x.mr
		if q.analyzed != nil {
			q.analyzed[x.m] = x.analyzed
		}
	}
	return true
}

// validateOptions is parseOptions writing a 400 on any invalid field.
func (s *Server) validateOptions(w http.ResponseWriter, methods []string,
	pathCap int, placement string) ([]analysis.Method, analysis.Options, bool) {

	ms, opts, err := parseOptions(methods, pathCap, placement)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
	}
	return ms, opts, err == nil
}

// parseOptions resolves the methods, path cap and placement of every
// request that names them: analyze, batch, delta and both curve
// endpoints.
func parseOptions(methods []string, pathCap int, placement string) ([]analysis.Method, analysis.Options, error) {
	ms, err := analysis.ParseMethods(methods)
	if err != nil {
		return nil, analysis.Options{}, err
	}
	if pathCap < 0 {
		return nil, analysis.Options{}, fmt.Errorf("negative path_cap %d", pathCap)
	}
	pl, err := parsePlacement(placement)
	return ms, analysis.Options{PathCap: pathCap, Placement: pl}, err
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v) // nothing useful to do on a client that went away
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...), Code: code})
}

// writeTimeout emits the structured 503 timeout verdict: the analysis
// overran its deadline and was abandoned; its work, if it had started,
// still lands in the cache. Retry-After reflects the observed backlog
// (queue depth times recent analysis latency) rather than a fixed second,
// so clients back off in proportion to actual load.
func (s *Server) writeTimeout(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.engine.retryAfterSeconds()))
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{
		Error:   "analysis deadline exceeded; retry may hit the cache",
		Code:    http.StatusServiceUnavailable,
		Timeout: true,
	})
}

// admit reserves n analysis jobs — the uncached results of a request that
// answer serves, or the samples of a grid stream — writing the appropriate
// rejection when they do not fit: a request that could never fit (n
// exceeds the queue bound outright) gets a non-retryable 400, while a
// transient full queue gets the backpressure 429 + Retry-After.
func (s *Server) admit(w http.ResponseWriter, n int) bool {
	if n > s.cfg.MaxQueue {
		writeError(w, http.StatusBadRequest,
			"request requires %d uncached analysis jobs, above the server's queue capacity %d; reduce n/batch size or raise -max-queue",
			n, s.cfg.MaxQueue)
		return false
	}
	if !s.engine.tryAdmit(n) {
		w.Header().Set("Retry-After", strconv.Itoa(s.engine.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "analysis queue full, retry later")
		return false
	}
	return true
}
