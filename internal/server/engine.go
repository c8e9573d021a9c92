package server

import (
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dpcpp/internal/analysis"
	"dpcpp/internal/experiments"
	"dpcpp/internal/model"
	"dpcpp/internal/obs"
	"dpcpp/internal/partition"
	"dpcpp/internal/store"
)

// engine is the cache-aware analysis core under every handler. The layering
// is strict: handlers decode and validate, the engine decides whether work
// is needed (cache), who does it (singleflight coalescing) and when
// (admission queue + worker slots), and the analysis itself stays inside
// internal/analysis untouched.
//
// Cache-key semantics: a result is addressed by
//
//	<taskset sha256>|<method>|pc=<path cap>|pl=<placement>|ex=<explain>
//
// — the taskset's canonical content hash (model.Taskset.Hash) plus every
// option that can change the result. Two requests with byte-different but
// semantically identical tasksets (reordered tasks, renamed tasks,
// duplicate edges) therefore share cache entries and coalesce onto one
// in-flight analysis.
type engine struct {
	workers  int
	maxQueue int64
	cache    *lru[*MethodResult]
	// st, when non-nil, is the on-disk write-through layer under the LRU:
	// misses consult it before paying for an analysis, and fresh results
	// are persisted so a restarted daemon keeps its cache warm. Store
	// failures only degrade to recomputation (counted in storeErrors),
	// never to request failures.
	st *store.Store
	// br gates every st access: after enough consecutive store failures it
	// opens and requests skip the disk entirely — no per-request syscall
	// penalty on a dead store — until a periodic probe succeeds. Nil (and
	// permanently closed) without a store.
	br     *store.Breaker
	flight flightGroup[*MethodResult]
	// deltaStates retains what-if bases (analysis.Delta: a finalized
	// schedulable taskset plus method and options) for recently analyzed
	// tasksets, keyed exactly like the result cache minus the explain flag:
	// <base hash>|<method>|pc|pl. A POST /v1/analyze/delta whose base is
	// present needs no taskset upload; a miss falls back to a full base
	// analysis that retains the base. Bounded like the result cache;
	// eviction only costs the next delta request one full analysis.
	deltaStates *lru[*analysis.Delta]
	// slots bounds concurrently executing analyses to the worker count;
	// queued counts admitted-but-unfinished jobs for backpressure.
	slots  chan struct{}
	queued atomic.Int64

	// testFn runs one analysis; tests swap it for counting/blocking hooks.
	testFn func(m analysis.Method, ts *model.Taskset, opts analysis.Options) partition.Result

	// scratch recycles analysis scratch arenas across requests: each worker
	// checks one out for the duration of a single analysis (a Scratch serves
	// one goroutine at a time), so a warmed-up server analyzes without
	// rebuilding its working memory per request. Every pooled Scratch
	// carries the engine's stage recorder, so per-stage pipeline timings
	// flow into the histograms without per-request wiring.
	scratch sync.Pool
	// latency is the analysis wall-time distribution; its built-in EWMA
	// feeds the computed Retry-After of backpressure responses, replacing
	// the ad-hoc accumulator that used to live beside it.
	latency *obs.Histogram
	// stages holds the per-stage Theorem 1 pipeline histograms, fed by the
	// allocation-free scratch hooks (analysis.StageRecorder).
	stages *stageRecorder

	// Counters behind GET /v1/metrics.
	requests    atomic.Int64
	analyses    atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	coalesced   atomic.Int64
	rejected    atomic.Int64
	canceled    atomic.Int64
	deadlines   atomic.Int64
	storeHits   atomic.Int64
	storePuts   atomic.Int64
	storeErrors atomic.Int64
	// deltaHits counts delta requests whose base was retained;
	// deltaFallbacks those that had to run a full base analysis first
	// (base missing or evicted).
	deltaHits      atomic.Int64
	deltaFallbacks atomic.Int64
}

// Metrics is the JSON body of GET /v1/metrics: monotonic counters plus
// point-in-time gauges.
type Metrics struct {
	// Requests counts analysis-bearing requests only (/v1/analyze,
	// /v1/analyze/batch, /v1/grid, POST /v1/sweeps) — liveness and metrics
	// probes never inflate it.
	Requests    int64 `json:"requests"`
	Analyses    int64 `json:"analyses"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Coalesced   int64 `json:"coalesced"`
	Rejected    int64 `json:"rejected"`
	// Canceled counts analyses abandoned because the client went away;
	// DeadlineExceeded those cut off by -request-timeout or a request's
	// timeout_ms. Both free their worker slot / queue position.
	Canceled         int64 `json:"canceled"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	StoreHits        int64 `json:"store_hits"`
	StorePuts        int64 `json:"store_puts"`
	StoreErrors      int64 `json:"store_errors"`
	// StoreState is the store circuit breaker's state (closed / open /
	// half-open; empty without a store); StoreTrips counts how many times
	// it has opened.
	StoreState string `json:"store_state,omitempty"`
	StoreTrips int64  `json:"store_trips"`
	// DeltaHits counts POST /v1/analyze/delta method results whose base was
	// retained; DeltaFallbacks those that needed a full base analysis
	// first; DeltaStates is the retained-base gauge.
	DeltaHits      int64 `json:"delta_hits"`
	DeltaFallbacks int64 `json:"delta_fallbacks"`
	DeltaStates    int64 `json:"delta_states"`
	QueuedJobs     int64 `json:"queued_jobs"`
	CacheEntries   int64 `json:"cache_entries"`
	Workers        int   `json:"workers"`
	// Sweep-job gauges/counters (see jobs.go).
	SweepsSubmitted int64 `json:"sweeps_submitted"`
	SweepsCompleted int64 `json:"sweeps_completed"`
	SweepsActive    int64 `json:"sweeps_active"`
}

func newEngine(workers, cacheSize int, maxQueue int64, st *store.Store, br *store.Breaker) *engine {
	workers = experiments.Workers(workers)
	e := &engine{
		workers:     workers,
		maxQueue:    maxQueue,
		cache:       newLRU[*MethodResult](cacheSize),
		deltaStates: newLRU[*analysis.Delta](cacheSize),
		st:          st,
		br:          br,
		slots:       make(chan struct{}, workers),
		latency:     obs.NewHistogram(obs.DefaultLatencyBounds()),
		stages:      newStageRecorder(),
	}
	e.scratch.New = func() any {
		sc := analysis.NewScratch()
		sc.SetStageRecorder(e.stages)
		return sc
	}
	e.testFn = e.runTest
	return e
}

// stageRecorder adapts the engine's per-stage histograms to the
// analysis.StageRecorder hook. The histograms are lock-free, so one
// recorder is shared by every pooled Scratch; recording is allocation-free
// (pinned by the analysis package's zero-alloc gates).
type stageRecorder struct {
	h [analysis.NumStages]*obs.Histogram
}

func newStageRecorder() *stageRecorder {
	r := &stageRecorder{}
	for i := range r.h {
		r.h[i] = obs.NewHistogram(obs.DefaultLatencyBounds())
	}
	return r
}

func (r *stageRecorder) RecordStage(s analysis.Stage, d time.Duration) { r.h[s].Observe(d) }

// runTest is the default testFn: the analysis computes through a pooled
// scratch, checked out for exactly one call.
func (e *engine) runTest(m analysis.Method, ts *model.Taskset, opts analysis.Options) partition.Result {
	sc := e.scratch.Get().(*analysis.Scratch)
	defer e.scratch.Put(sc)
	return analysis.TestWith(sc, m, ts, opts)
}

// retryAfterSeconds estimates when capacity frees up: queued jobs drain
// through the worker slots at roughly one recent-average latency each, so
// the backlog clears in about queued*latency/workers. The recent average
// is the latency histogram's EWMA — the same recorder that feeds
// /metrics, so the estimate and the exported distribution can never
// drift apart. Clamped to [1, 60] seconds — a saturated server should
// not promise sub-second retries it cannot honor, nor park clients for
// minutes on a stale estimate.
func (e *engine) retryAfterSeconds() int {
	lat := int64(e.latency.EWMA())
	if lat <= 0 {
		return 1
	}
	queued := e.queued.Load()
	if queued < 1 {
		queued = 1
	}
	secs := (queued*lat/int64(e.workers) + int64(time.Second) - 1) / int64(time.Second)
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return int(secs)
}

// tryAdmit reserves n analysis jobs against the queue bound. A false
// return means the server is saturated and the request must be rejected
// (429) rather than queued without bound.
func (e *engine) tryAdmit(n int) bool {
	if e.queued.Add(int64(n)) > e.maxQueue {
		e.queued.Add(int64(-n))
		e.rejected.Add(1)
		return false
	}
	return true
}

// release returns n admitted jobs to the queue bound.
func (e *engine) release(n int) { e.queued.Add(int64(-n)) }

// cacheKey builds the content address of one (taskset, method, options)
// result. PathCap is normalized first so 0 and the explicit default hit
// the same entry.
func cacheKey(h model.Hash, m analysis.Method, opts analysis.Options, explain bool) string {
	pc := opts.PathCap
	if pc <= 0 {
		pc = analysis.DefaultPathCap
	}
	key := h.String() + "|" + string(m) + "|pc=" + strconv.Itoa(pc) +
		"|pl=" + strconv.Itoa(int(opts.Placement))
	if explain {
		key += "|ex=1"
	}
	return key
}

// analyze returns the method's result for the hashed taskset, from cache
// when possible. On a miss, concurrent identical requests coalesce onto
// one analysis (singleflight) which runs on a bounded worker slot; the
// result is cached before any waiter wakes. The cache-hit path performs no
// analysis work and acquires no slot.
//
// ctx bounds this caller's wait, not the shared computation: when ctx ends
// while the caller is queued for a worker slot or coalesced onto another
// caller's flight, analyze returns ctx's error immediately and the
// caller's slot claim is released — a disconnected client frees its worker
// slot. An analysis that already started runs to completion and lands in
// the cache even if every client that wanted it has gone.
func (e *engine) analyze(ctx context.Context, h model.Hash, ts *model.Taskset,
	m analysis.Method, opts analysis.Options, explain bool) (*MethodResult, error) {

	// Only DPCP-p-EP ever carries a breakdown, so the explain flag must
	// not fork the cache key (or re-run the analysis) of any other method.
	explain = explain && m == analysis.DPCPpEP
	// The flight function runs under a Background-derived context (the
	// computation outlives any one caller), so the caller's trace must be
	// captured here and closed over — it cannot be recovered from fctx.
	tr := obs.TraceFromContext(ctx)
	key := cacheKey(h, m, opts, explain)
	cacheStart := time.Now()
	if v, ok := e.cache.get(key); ok {
		e.cacheHits.Add(1)
		tr.AddSpan("cache", cacheStart)
		return v, nil
	}
	e.cacheMisses.Add(1)
	flightStart := time.Now()
	v, err, shared := e.flight.do(ctx, key, func(fctx context.Context) (*MethodResult, error) {
		// A racing flight may have completed — and cached — between this
		// caller's cache miss and registering the flight; re-check before
		// paying for a worker slot, so duplicate analyses are impossible,
		// not merely unlikely.
		if v, ok := e.cache.get(key); ok {
			return v, nil
		}
		// The persistent store is the next layer down: a result computed in
		// a previous process lifetime costs a disk read, not an analysis or
		// a worker slot.
		storeStart := time.Now()
		if mr := e.storeGet(key); mr != nil {
			e.cache.add(key, mr)
			tr.AddSpan("store", storeStart)
			return mr, nil
		}
		select {
		case e.slots <- struct{}{}:
		case <-fctx.Done():
			// Every caller abandoned before a worker slot freed up;
			// nothing was computed, so there is nothing to cache.
			return nil, fctx.Err()
		}
		defer func() { <-e.slots }()
		e.analyses.Add(1)
		start := time.Now()
		res := e.testFn(m, ts, opts)
		e.latency.Observe(time.Since(start))
		tr.AddSpan("analysis", start)
		mr := &MethodResult{
			Schedulable: res.Schedulable,
			WCRT:        res.WCRT,
			Rounds:      res.Rounds,
			Reason:      res.Reason,
		}
		if explain && res.Partition != nil {
			pc := opts.PathCap
			if pc <= 0 {
				pc = analysis.DefaultPathCap
			}
			mr.Explain = analysis.NewDPCPp(ts, pc, false).Explain(res.Partition)
		}
		e.cache.add(key, mr)
		e.storePut(key, mr)
		return mr, nil
	})
	if shared {
		e.coalesced.Add(1)
		// A coalesced waiter did not run the flight body, so its trace has
		// no store/analysis spans; the flight span covers the whole wait.
		tr.AddSpan("flight", flightStart)
	}
	if err != nil {
		e.noteAbort(err)
		return nil, err
	}
	return v, nil
}

// noteAbort counts an abandoned analyze call by cause.
func (e *engine) noteAbort(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		e.deadlines.Add(1)
	} else {
		e.canceled.Add(1)
	}
}

// cachedAll returns every requested method's result when all of them are
// already cached (counting one hit per method), or nil on any miss without
// touching the counters. It lets handlers serve fully-cached requests
// without charging admission: a saturated queue must never 429 a request
// that needs zero analysis work.
func (e *engine) cachedAll(h model.Hash, ms []analysis.Method,
	opts analysis.Options, explain bool) map[string]*MethodResult {

	out := make(map[string]*MethodResult, len(ms))
	for _, m := range ms {
		v, ok := e.cache.get(cacheKey(h, m, opts, explain && m == analysis.DPCPpEP))
		if !ok {
			return nil
		}
		out[string(m)] = v
	}
	e.cacheHits.Add(int64(len(ms)))
	return out
}

// storeGet fetches and decodes a persisted result (nil on miss, on a
// disabled store, on an open breaker, or on any store failure — failures
// degrade to recomputation).
func (e *engine) storeGet(key string) *MethodResult {
	if e.st == nil || !e.br.Allow() {
		return nil
	}
	data, ok, err := e.st.Get(key)
	e.br.Record(err)
	if err != nil {
		e.storeErrors.Add(1)
		return nil
	}
	if !ok {
		return nil
	}
	var mr MethodResult
	if err := json.Unmarshal(data, &mr); err != nil {
		// The disk worked; the entry is corrupt. Not a breaker signal.
		e.storeErrors.Add(1)
		return nil
	}
	e.storeHits.Add(1)
	return &mr
}

// storePut persists a fresh result; failures are counted, never surfaced,
// and an open breaker skips the write entirely (the result stays in the
// LRU and is recomputable).
func (e *engine) storePut(key string, mr *MethodResult) {
	if e.st == nil || !e.br.Allow() {
		return
	}
	data, err := json.Marshal(mr)
	if err == nil {
		err = e.st.Put(key, data)
		e.br.Record(err)
	}
	if err != nil {
		e.storeErrors.Add(1)
		return
	}
	e.storePuts.Add(1)
}

// snapshot captures the engine's metrics; the server layers the sweep-job
// counters on top (Server.Metrics).
func (e *engine) snapshot() Metrics {
	return Metrics{
		Requests:         e.requests.Load(),
		Analyses:         e.analyses.Load(),
		CacheHits:        e.cacheHits.Load(),
		CacheMisses:      e.cacheMisses.Load(),
		Coalesced:        e.coalesced.Load(),
		Rejected:         e.rejected.Load(),
		Canceled:         e.canceled.Load(),
		DeadlineExceeded: e.deadlines.Load(),
		StoreHits:        e.storeHits.Load(),
		StorePuts:        e.storePuts.Load(),
		StoreErrors:      e.storeErrors.Load(),
		StoreState:       e.br.State(),
		StoreTrips:       e.br.Trips(),
		DeltaHits:        e.deltaHits.Load(),
		DeltaFallbacks:   e.deltaFallbacks.Load(),
		DeltaStates:      e.deltaStates.entries(),
		QueuedJobs:       e.queued.Load(),
		CacheEntries:     e.cache.entries(),
		Workers:          e.workers,
	}
}
