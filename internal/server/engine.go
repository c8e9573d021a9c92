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
//	<taskset sha256>|<method>|pc=<path cap>|pl=<placement>|sv=<semantics version>
//
// with |ex=1 appended for an explained result (cacheKey) — the taskset's
// canonical content hash (model.Taskset.Hash), every option that can
// change the result, and analysis.SemanticsVersion, so results computed
// under other analysis semantics are never served. Two requests with
// byte-different but semantically identical tasksets (reordered tasks,
// renamed tasks, duplicate edges) therefore share cache entries and
// coalesce onto one in-flight analysis.
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
	// deltaStates retains what-if bases: the finalized bases and patched
	// tasksets of POST /v1/analyze/delta, keyed by the hex form of their
	// bare hash. A taskset depends on no method, option or analysis
	// semantics, so one entry serves every query that quotes its hash, and
	// a verdict never decides what is retained. It holds no analysis
	// state: a query whose base is present just needs no taskset upload.
	// Bounded like the result cache; eviction only costs the client one
	// re-upload.
	deltaStates *lru[*model.Taskset]
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
	stages stageRecorder

	// Counters behind both metric endpoints; newEngine declares each one
	// with its HELP text.
	requests       *obs.Counter
	analyses       *obs.Counter
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	coalesced      *obs.Counter
	rejected       *obs.Counter
	canceled       *obs.Counter
	deadlines      *obs.Counter
	storeHits      *obs.Counter
	storePuts      *obs.Counter
	storeErrors    *obs.Counter
	deltaHits      *obs.Counter
	deltaFallbacks *obs.Counter
}

// Metrics is the JSON body of GET /v1/metrics: monotonic counters plus
// point-in-time gauges. The server's metric registry renders the body;
// Metrics decodes it, so its fields follow registration order.
type Metrics struct {
	// Requests counts analysis-bearing requests only (/v1/analyze,
	// /v1/analyze/batch, /v1/analyze/delta, /v1/grid, POST /v1/sweeps) —
	// liveness and metrics probes never inflate it.
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
	// retained; DeltaFallbacks those whose base was not retained and was
	// taken from base_taskset; DeltaStates is the retained-taskset gauge.
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

// newEngine builds the engine and declares its metrics in reg, in the
// order of the Metrics fields.
func newEngine(reg *obs.Registry, workers, cacheSize int, maxQueue int64, st *store.Store, br *store.Breaker) *engine {
	workers = experiments.Workers(workers)
	e := &engine{
		workers:     workers,
		maxQueue:    maxQueue,
		cache:       newLRU[*MethodResult](cacheSize),
		deltaStates: newLRU[*model.Taskset](cacheSize),
		st:          st,
		br:          br,
		slots:       make(chan struct{}, workers),
	}
	e.requests = reg.Counter("schedd_requests_total", "requests",
		"Analysis-bearing requests (analyze, batch, delta, grid, sweep submissions).")
	e.analyses = reg.Counter("schedd_analyses_total", "analyses",
		"Analyses actually executed (cache and store misses).")
	e.cacheHits = reg.Counter("schedd_cache_hits_total", "cache_hits",
		"Result-cache hits, one per method result served.")
	e.cacheMisses = reg.Counter("schedd_cache_misses_total", "cache_misses", "Result-cache misses.")
	e.coalesced = reg.Counter("schedd_coalesced_total", "coalesced",
		"Requests coalesced onto another caller's in-flight analysis.")
	e.rejected = reg.Counter("schedd_rejected_total", "rejected",
		"Requests rejected by admission control (429).")
	e.canceled = reg.Counter("schedd_canceled_total", "canceled",
		"Analyses abandoned because the client went away.")
	e.deadlines = reg.Counter("schedd_deadline_exceeded_total", "deadline_exceeded",
		"Analyses cut off by a request deadline.")
	e.storeHits = reg.Counter("schedd_store_hits_total", "store_hits", "Persistent-store result hits.")
	e.storePuts = reg.Counter("schedd_store_puts_total", "store_puts", "Results persisted to the store.")
	e.storeErrors = reg.Counter("schedd_store_errors_total", "store_errors",
		"Store failures (degraded to recomputation, never to request failures).")
	reg.Text("store_state", br.State)
	reg.CounterFunc("schedd_store_breaker_trips_total", "store_trips",
		"Times the store circuit breaker opened.", br.Trips)
	e.deltaHits = reg.Counter("schedd_delta_hits_total", "delta_hits",
		"Delta method results whose base taskset was retained.")
	e.deltaFallbacks = reg.Counter("schedd_delta_fallbacks_total", "delta_fallbacks",
		"Delta method results whose base was not retained and was taken from base_taskset.")
	reg.Gauge("schedd_delta_states", "", "delta_states",
		"Retained what-if tasksets, one per hash (bounded LRU).", e.deltaStates.entries)
	reg.Gauge("schedd_queue_depth", "", "queued_jobs",
		"Admitted-but-unfinished analysis jobs.", e.queued.Load)
	reg.Gauge("schedd_cache_entries", "", "cache_entries",
		"Entries in the in-memory result cache.", e.cache.entries)
	reg.Gauge("schedd_workers", "", "workers",
		"Configured analysis worker slots.", func() int64 { return int64(workers) })
	reg.Gauge("schedd_inflight_analyses", "", "",
		"Analyses executing right now (occupied worker slots).", func() int64 { return int64(len(e.slots)) })
	for _, state := range []string{store.BreakerClosed, store.BreakerOpen, store.BreakerHalfOpen} {
		reg.Gauge("schedd_store_breaker_state", obs.Labels("state", state), "",
			"Store circuit-breaker state (1 for the current state, 0 otherwise; all 0 without a store).",
			func() int64 {
				if br.State() == state {
					return 1
				}
				return 0
			})
	}
	e.latency = reg.Histogram("schedd_analysis_duration_seconds", "",
		"Wall time of executed analyses (cache misses only).")
	for stage := analysis.Stage(0); stage < analysis.NumStages; stage++ {
		e.stages[stage] = reg.Histogram("schedd_analysis_stage_duration_seconds", obs.Labels("stage", stage.String()),
			"Per-stage analysis pipeline timing (views, fixpoint, round).")
	}
	e.scratch.New = func() any {
		sc := analysis.NewScratch()
		sc.SetStageRecorder(&e.stages)
		return sc
	}
	e.testFn = e.runTest
	return e
}

// stageRecorder adapts the engine's per-stage histograms to the
// analysis.StageRecorder hook. The histograms are lock-free, so one
// recorder is shared by every pooled Scratch; recording is allocation-free
// (pinned by the analysis package's zero-alloc gates).
type stageRecorder [analysis.NumStages]*obs.Histogram

func (r *stageRecorder) RecordStage(s analysis.Stage, d time.Duration) { r[s].Observe(d) }

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
// result under the current analysis semantics. It keys both the in-memory
// cache and the persistent store, so a store written by code with other
// analysis semantics is a miss, never a stale answer. PathCap is
// normalized first so 0 and the explicit default hit the same entry.
func cacheKey(h model.Hash, m analysis.Method, opts analysis.Options, explain bool) string {
	key := h.String() + "|" + string(m) + "|pc=" + strconv.Itoa(opts.EffectivePathCap()) +
		"|pl=" + strconv.Itoa(int(opts.Placement)) + "|sv=" + strconv.Itoa(analysis.SemanticsVersion)
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
//
// The bool result reports whether this call's own flight ran the analysis
// (not a cache, store or coalesced answer); the delta endpoint reports it
// as DeltaInfo.Incremental.
func (e *engine) analyze(ctx context.Context, h model.Hash, ts *model.Taskset,
	m analysis.Method, opts analysis.Options, explain bool) (*MethodResult, bool, error) {

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
		return v, false, nil
	}
	e.cacheMisses.Add(1)
	// Written only by this call's own flight body, and read only after
	// that flight has finished.
	analyzed := false
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
		analyzed = true
		mr := &MethodResult{
			Schedulable: res.Schedulable,
			WCRT:        res.WCRT,
			Rounds:      res.Rounds,
			Reason:      res.Reason,
		}
		if explain && res.Partition != nil {
			mr.Explain = analysis.NewDPCPp(ts, opts.EffectivePathCap(), false).Explain(res.Partition)
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
		return nil, false, err
	}
	return v, analyzed, nil
}

// noteAbort counts an abandoned analyze call by cause.
func (e *engine) noteAbort(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		e.deadlines.Add(1)
	} else {
		e.canceled.Add(1)
	}
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
