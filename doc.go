// Package dpcpp is a reproduction of "DPCP-p: A Distributed Locking
// Protocol for Parallel Real-Time Tasks" (Yang, Chen, Jiang, Guan, Lei;
// DAC 2020). It provides, behind one facade:
//
//   - the parallel (DAG) task and shared-resource model of Sec. II
//     (package internal/model),
//   - the DPCP-p worst-case response-time analysis of Sec. IV in both the
//     path-enumerating (EP) and path-oblivious (EN) variants, plus the
//     SPIN-SON, LPP and FED-FP baselines of Sec. VII
//     (package internal/analysis),
//   - the task/resource partitioning Algorithms 1 and 2 of Sec. V
//     (package internal/partition),
//   - a deterministic discrete-event simulator of the DPCP-p runtime with
//     protocol invariant checkers, including a Lemma 1 ledger
//     (package internal/sim),
//   - the RandFixedSum/Erdős–Rényi taskset synthesis of Sec. VII-A plus
//     adversarial generators far outside the paper's grid
//     (package internal/taskgen),
//   - the experiment harness regenerating Fig. 2 and Tables 2-3
//     (package internal/experiments), and
//   - a differential soundness audit fuzzing adversarial tasksets and
//     cross-checking every analysis against the simulator
//     (package internal/audit), and
//   - a long-running analysis service exposing all of it over an HTTP
//     JSON API with content-addressed result caching, request coalescing,
//     and durable asynchronous sweep jobs backed by a persistent result
//     store (packages internal/server and internal/store, daemon
//     cmd/schedd).
//
// # Quick start
//
//	scen, _ := dpcpp.Fig2Scenario("2a")
//	g := dpcpp.NewGenerator(scen)
//	ts, _ := g.Taskset(rand.New(rand.NewSource(1)), 8.0)
//	res := dpcpp.Test(dpcpp.DPCPpEP, ts, dpcpp.Options{})
//	fmt.Println(res.Schedulable)
//
// See examples/ for runnable programs and cmd/schedtest for the full
// evaluation harness.
//
// # The task model
//
// A model.Task holds the paper's DAG (Sec. II): vertices v_{i,x} with
// WCETs, precedence edges, and per-vertex request counts N_{i,x,q}.
// Finalize seals it in a compact layout built for the analyses, which
// read it millions of times per sweep:
//
//   - Adjacency is compressed sparse rows (model.Adjacency): one offset
//     array and one flat neighbour array per direction, built by counting
//     sort. Task.Succ and Task.Pred return subslices of it, sorted
//     ascending, with a repeated edge kept once.
//   - A vertex's requests are a model.Requests: a slice of
//     {Resource, Count} sorted by resource, with Count(q) as the lookup.
//     The JSON form is unchanged: the object {"q": n, ...} that
//     encoding/json writes for a map[rt.ResourceID]int, keys ordered as
//     strings, zero counts kept.
//   - The per-resource totals N_{i,q} and vertex counts V_{i,q}, the
//     topological order and the path bounds are computed once. Finalize
//     makes the same few allocations for any task size, and taskgen
//     builds each task's vertices and request entries from one slab
//     apiece. The canonical hash body is not kept: Taskset.Hash builds
//     it when asked, into one exactly sized buffer.
//
// # The path-view engine
//
// The EP analysis nominally evaluates Theorem 1 once per complete DAG path,
// and path counts grow exponentially with parallel structure. The engine
// instead evaluates once per path *view*: paths are collapsed by their
// per-resource request-vector signature N^lambda_{i,q} during a dynamic
// program over the DAG (model.Task.EnumerateViews), because every Theorem 1
// term except L(lambda) and the on-path non-critical WCET depends on the
// path only through that signature, and the bound is monotone
// non-decreasing in those two coupled quantities for a fixed signature
// (L = C'(lambda) + sum_q N^lambda_{i,q} L_{i,q}, and the 1/m_i interference
// division can never win back more than the path-length increase). Each
// view therefore carries the per-signature maxima, making the collapse
// exact — verdicts and WCRTs are bit-identical to per-path evaluation — while
// a 2^14-path DAG whose paths share one signature costs one evaluation.
// On top of the collapse, the analyzer memoizes per-task views across the
// partitioning loop's rounds and the Lemma 2 W fixed points across views
// (keyed by processor and recurrence base), and the experiment harness
// drains entire scenario grids through one shared work-conserving pool
// (experiments.RunGrid) with scheduling-independent deterministic seeding.
// One augmentation loop (package internal/partition) partitions for every
// method: with resource placement for DPCP-p, without it for the
// baselines, and with Sec. VI light-task packing in AlgorithmMixed. A round
// stops at the first task that misses its deadline (partition.Analyzer's
// untilMiss) exactly when processors remain unassigned and no light task
// is packed, since only then does the miss just grow a cluster. A task's
// bound reads only the bounds above it and the round's map is discarded,
// so results stay bit-identical. Stopping early took the fig2-sweep
// benchmark from a median 167 to 257 tasksets/s (10 alternating 40 s pairs
// on a shared 2-core Xeon). Path bounds are computed once per task, in one
// reverse-topological pass inside model.Task.Finalize, and shared by
// DPCP-p-EN, SPIN-SON and LPP; together with allocation-light task
// sampling this took fig2-sweep from a median 297 to 493 tasksets/s
// (+66%, same method and machine).
//
// # The differential audit
//
// Every response-time bound in the repository is a soundness claim:
// "schedulable" must mean no execution misses a deadline. The audit
// subsystem (internal/audit, CLI `schedtest -audit`) continuously attacks
// that claim with adversarial tasksets the paper's grid never draws — deep
// chains, wide fork-joins, random layered DAGs, degenerate single-vertex
// tasks, and contention-heavy mixes with near-harmonic periods and skewed
// critical sections. For every certified (taskset, method) verdict it
// replays the taskset in the simulator under the method's runtime protocol
// across CS placements and release offsets, and additionally checks that
// EP never exceeds EN on one identical partition and that every bound is
// monotone under WCET inflation. A violating taskset is shrunk (drop tasks
// → drop vertices → halve WCETs → halve request counts) to a minimal JSON
// reproduction and kept as a permanent regression fixture. The audit
// already earned its keep: it caught two LPP runtime-protocol bugs
// (dispatch-time-only boosting, and semaphore acquisition from the ready
// queue) as certified-taskset deadline misses; the shrunken counterexample
// lives in internal/audit/testdata/lpp-dispatch-time-locking.json.
//
// # The analysis service
//
// Test(taskset, method) is a pure deterministic function, which makes the
// engine ideal to serve: identical requests are identical work. The
// service stack keeps a strict engine → pool → server layering.
// internal/analysis stays the only source of verdicts;
// experiments.ParallelFor stays the only scheduling primitive (batch
// fan-out and streaming grid sweeps drain through it exactly like the CLI
// grids and the audit); internal/server adds only service concerns on
// top. Results are cached in a sharded LRU addressed by
// model.Taskset.Hash — a SHA-256 over a canonical serialization (tasks
// sorted by ID, per-vertex requests sorted by resource, edges sorted and
// de-duplicated, unused CS lengths and names dropped) — joined with every
// option that can change a verdict (method, path cap, placement,
// explain) and with analysis.SemanticsVersion, so a persisted result of
// code that answered differently is a miss, never a stale answer (a test
// pins the current answers by a fingerprint over a fixed corpus and fails
// until the version is bumped). Two byte-different but semantically
// identical tasksets
// therefore share cache entries, N concurrent identical misses coalesce
// onto exactly one analysis (singleflight), and admission is bounded:
// when the queue is transiently full a request is rejected with 429 +
// Retry-After instead of queuing without bound (and one that could never
// fit gets a non-retryable 400). /v1/analyze, /v1/analyze/batch and
// /v1/analyze/delta share one answer path: it probes the result cache for
// every (taskset, method), admits only the misses — so admission counts
// real work and a fully cached request is never rejected — and fans the
// misses out through the engine. The cache-hit path does
// no analysis work at all, turning millisecond analyses into microsecond
// lookups. cmd/schedd wraps the handler in a daemon with graceful
// shutdown; the streamed GET /v1/grid endpoint derives every sample seed
// through experiments.SampleSeed, so a streamed acceptance curve is
// bit-identical to `schedtest -fig` with the same seed.
//
// # What-if analysis
//
// POST /v1/analyze/delta serves what-if queries — one patched task per
// request — against a base taskset the server already holds, so a client
// quotes the base's hash instead of uploading it again. The handler
// resolves the base once (the taskset retained under that hash, or else
// the request's base_taskset), applies the patch once with
// model.ApplyPatch, hashes the result and answers it through the shared
// answer path, exactly as /v1/analyze answers the same edited taskset:
// result cache, singleflight, store and worker slot, for any method. A
// verdict is a pure function of the finalized taskset, so the endpoint
// keeps no analysis state, never analyzes the base, and a delta verdict is,
// by construction, the verdict /v1/analyze gives. The audit's patch leg
// checks that a patched taskset hashes and analyzes exactly like the same
// taskset rebuilt from its JSON.
//
// Ownership and invalidation rules:
//
//   - The server's bounded LRU of retained tasksets holds finalized
//     *model.Taskset values keyed by their bare canonical hash: a taskset
//     depends on no method, option or analysis semantics, so one entry
//     serves every query that quotes it. Each answered query retains its
//     base and its patched taskset, whatever their verdicts, so an edit
//     chain can quote any link.
//   - Retained tasksets are immutable and shared across requests, so
//     ApplyPatch never writes its base: untouched tasks are shared by
//     pointer, and any task the patched set edits or assigns a priority
//     to is a clone.
//   - LRU eviction costs one upload, never correctness: a query whose base
//     was evicted (counted in delta_fallbacks) re-establishes it when the
//     request carries base_taskset, or is rejected with a structured 400
//     telling the client to re-send it when it carries only the hash.
//
// # Sweep jobs and the persistent store
//
// The paper's headline artifact is whole acceptance-ratio campaigns, so
// the service runs them as durable background jobs rather than one open
// connection per curve. POST /v1/sweeps accepts any subset of the Fig. 2
// subplots and the 216-scenario grid and returns a job ID immediately; a
// FIFO runner drains each job's (scenario, point, sample) fan-out through
// experiments.Sweep — the same driver behind the CLI grids and the grid
// stream — bounded by the same worker slots interactive requests use. GET /v1/sweeps/{id} reports
// per-scenario progress in completed points; /results serves the curves.
//
// Durability is layered under both the cache and the jobs
// (internal/store): with a store directory configured, every analysis
// result writes through to an on-disk content-addressed store keyed by
// the same canonical hash — restarts keep the cache warm — and sweep jobs
// checkpoint each completed utilization point to an atomically-written
// JSON file. A restarted daemon reloads the checkpoints and resumes
// unfinished sweeps, re-running only incomplete points; sample seeds are
// pure functions of (seed, scenario, point, sample), so a resumed sweep's
// curves are byte-identical to an uninterrupted run's.
//
// # Scratch arenas and memory ownership
//
// Analysis at sweep scale is allocation-bound, so the hot path computes
// through reusable scratch memory with three rules:
//
//   - A Scratch (NewScratch, threaded via TestWith) serves one goroutine
//     at a time. The experiments pool and the server keep one per worker;
//     ad-hoc callers may share one across sequential analyses of any
//     number of tasksets.
//   - Results returned by Test/TestWith are always scratch-independent:
//     they own their memory and may be retained while the scratch moves
//     on. Internal borrowers are scoped instead — an analyzer's WCRTs map
//     is valid until its next WCRTs call, the views Task.EnumerateViews
//     returns through a ViewScratch until the next call on the same
//     scratch — and every such lifetime is documented at the API
//     returning it.
//   - Steady state allocates nothing: arenas grow to a high-water mark
//     and are reset, not freed, between tasks and tasksets. This is
//     pinned by AllocsPerRun tests and by the committed benchmark
//     snapshots (BENCH_<pr>.json) that the CI bench gate enforces; see
//     the README's Performance section and cmd/benchgate.
//
// # Robustness and the fault model
//
// The service assumes requests can outlive their clients and disks can
// fail mid-write, and treats both as normal operation. Deadlines and
// cancellation flow as context.Context from every handler through the
// engine: a canceled request is abandoned before it takes a worker slot,
// batch fan-outs stop admitting work once the client is gone, and a
// coalesced waiter detaches without cancelling the computation other
// requests share (the result still lands in the cache, so the client's
// retry is a hit). Timed-out requests get a structured 503 rather than a
// hung connection.
//
// The fault model for storage is crash/EIO: a write may fail before any
// byte lands, or the process may die after data is written but before
// the rename commits it (a torn write) — never silent corruption of
// committed bytes. Store writes are atomic (temp file + rename, with
// opt-in fsync of file and parent directory for checkpoints), so a torn
// write leaves the previous committed state intact and resumed sweeps
// stay byte-identical. All store I/O sits behind a circuit breaker:
// consecutive errors open it and the daemon degrades to compute-only
// service — nothing persists, everything still answers — probing the
// disk periodically and resuming write-through when it heals. State
// corrupted outside the protocol (a truncated checkpoint) fails exactly
// the damaged job, never startup. These claims are executable:
// store-level fault hooks inject EIO, ENOSPC-style and torn-write
// failures, and a chaos suite drives randomized kill/restart cycles
// against them in CI, asserting no panics, byte-identical recovered
// curves, and corruption isolation.
package dpcpp
