package main

import "time"

// Platform and load-shape constants. The sweep pool, the server's analysis
// slots and the load generator's connections are all pinned to two, the
// core count of the machine the benchmark was sized on, so a faster or
// wider host changes speed but never the shape of the work.
const (
	workers  = 2 // experiments pool size and server.Config.Workers
	maxConns = 2 // load-generator connections

	// sloP99 is the latency limit: a rate meets it when the p99 latency,
	// timed from each request's due time, is at most this, no request
	// failed, and the generator kept to its schedule.
	sloP99 = 20 * time.Millisecond
	// ladderStep is the ratio between neighbouring rungs of the rate
	// ladder: rung k runs at nominal * ladderStep^k.
	ladderStep = 1.1
	// ladderMinK and ladderMaxK bound the rung index the search may visit.
	ladderMinK, ladderMaxK = -16, 32
	// probeSamples is the minimum request count of one ladder probe, so
	// that its p99 has at least ten samples beyond it.
	probeSamples = 1000

	// sweepN is the per-point sample count of one fig2-sweep campaign.
	sweepN = 5
	// setupReps is how many times each run builds its set-up; setup_s is
	// the median.
	setupReps = 3
	// serveRounds is how many rounds of nominal schedule and closed loop a
	// serve run alternates; each round's schedule is over a thousand
	// requests, so its p99 has ten beyond it.
	serveRounds = 5
)

// workload describes one benchmark workload.
type workload struct {
	Name string
	Why  string
	// Mix states what the traffic or job stream is made of.
	Mix string
	// NominalRPS is the open-loop rate latency_p50_ms is reported at
	// (serve workloads only).
	NominalRPS float64
	// ProbeOnly marks a workload measured only as a probe inside traced
	// runs: it is not a BENCHMARK.json workload (see workloads).
	ProbeOnly bool
}

// workloads are the benchmark's workloads; their names are cited by later
// changes and must not change. serve-whatif is a probe only: on a shared
// two-core machine its closed-loop capacity, which the store's file writes
// dominate, spread by a third between runs, beyond what a gated workload
// may; its layers are still measured in every traced run.
var workloads = []workload{
	{
		Name: "fig2-sweep",
		Why:  "Fig. 2(a)+(b) campaigns, all five methods, through experiments.RunGrid at 2 workers: the analysis kernels do the work, no HTTP, cache or store",
		Mix: "campaigns of Fig. 2(a) (m=16) and Fig. 2(b) (m=32, pr=1) at n=5 samples per point; " +
			"campaign c uses Campaign.Seed = seed+c; 65% of the time in RunGrid, 35% replaying the same jobs " +
			"through experiments.ParallelFor with per-job timing",
	},
	{
		Name:       "serve-repeat",
		Why:        "open-loop POST /v1/analyze over a cache-sized Fig. 2(a) set: the request path (decode, finalize, hash, caches, encode) does most of the work",
		Mix:        "60% byte-identical repeats, 30% semantic repeats (task order permuted), 10% fresh tasksets (one vertex WCET raised)",
		NominalRPS: 250,
	},
	{
		Name:       "serve-whatif",
		Why:        "open-loop POST /v1/analyze/delta against retained bases: patch, hash, delta apply and the store write path, no large-body decode",
		Mix:        "90% fresh one-op patches by base hash (70% set_wcet, 10% set_cslen, 10% set_period, 10% add_edge), 10% re-asked earlier what-ifs",
		NominalRPS: 300,
		ProbeOnly:  true,
	},
}

// metric is one reported metric. End-to-end metrics carry the bound by
// which they may worsen; per-layer metrics name the end-to-end metrics
// (workload:metric) they are expected to move.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Moves  []string
	Doc    string
}

// endToEnd are the metrics a user of the system sees; every untraced run
// reports all of them.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "median over setupReps builds of input generation, server.New and cache/base warm-up"},
	{Name: "sweep_tasksets_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Doc: "fig2-sweep: samples analyzed by all five methods per RunGrid wall second; serve-*: median over serveRounds rounds of the tasksets answered per second by a closed loop over the same two connections (capacity)"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "serve-*: median over serveRounds rounds of the median latency at the nominal rate, timed from each request's due time; fig2-sweep: median per-sample job time in the ParallelFor replay. " +
			"Tail latencies (p95, p99) and the highest ladder rate meeting sloP99 are measured too and printed on stderr, not gated: " +
			"on a shared two-core machine they spread by 0.2-0.9 of their median between runs, past the largest bound allowed"},
	{Name: "success_ratio", Unit: "ratio", Better: "higher", Bound: 0.01,
		Doc: "1 - failed_ratio: operations that succeeded and checked correct over operations attempted"},
	{Name: "heap_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25,
		Doc: "peak live Go heap (bytes the last GC marked, runtime/metrics) over the fixed-work part of the timed phase: RunGrid (fig2-sweep), the nominal schedule (serve-*)"},
}

// perLayer are the layer metrics every traced run reports. A workload's
// own layers are measured on its traffic; the rest by a short probe of the
// workload whose traffic exercises them.
var perLayer = []metric{
	// fig2-sweep: the analysis kernels.
	{Name: "taskgen.sample_us", Unit: "us", Better: "lower", Moves: []string{"fig2-sweep:sweep_tasksets_per_s"},
		Doc: "experiments.GenerateSample per sample"},
	{Name: "analysis.ep_us", Unit: "us", Better: "lower", Moves: []string{"fig2-sweep:sweep_tasksets_per_s", "serve-repeat:latency_p50_ms"},
		Doc: "analysis.TestWith(DPCP-p-EP) per sample"},
	{Name: "analysis.en_us", Unit: "us", Better: "lower", Moves: []string{"fig2-sweep:sweep_tasksets_per_s"},
		Doc: "analysis.TestWith(DPCP-p-EN) per sample"},
	{Name: "analysis.spin_us", Unit: "us", Better: "lower", Moves: []string{"fig2-sweep:sweep_tasksets_per_s"},
		Doc: "analysis.TestWith(SPIN-SON) per sample"},
	{Name: "analysis.lpp_us", Unit: "us", Better: "lower", Moves: []string{"fig2-sweep:sweep_tasksets_per_s"},
		Doc: "analysis.TestWith(LPP) per sample"},
	{Name: "analysis.fedfp_us", Unit: "us", Better: "lower", Moves: []string{"fig2-sweep:sweep_tasksets_per_s"},
		Doc: "analysis.TestWith(FED-FP) per sample"},
	{Name: "model.views_us", Unit: "us", Better: "lower", Moves: []string{"fig2-sweep:sweep_tasksets_per_s"},
		Doc: "self time of the views stage per sample (StageRecorder)"},
	{Name: "rta.fixpoint_us", Unit: "us", Better: "lower", Moves: []string{"fig2-sweep:sweep_tasksets_per_s"},
		Doc: "self time of the fixpoint stage per sample (StageRecorder)"},
	{Name: "partition.round_self_us", Unit: "us", Better: "lower", Moves: []string{"fig2-sweep:sweep_tasksets_per_s"},
		Doc: "round stage time minus its views and fixpoint children, per sample"},
	{Name: "partition.rounds", Unit: "count", Better: "lower", Moves: []string{"fig2-sweep:sweep_tasksets_per_s"},
		Doc: "partition rounds summed over every method of the replayed campaign (exact for a seed)"},
	{Name: "analysis.allocs_per_sample", Unit: "count", Better: "lower", Moves: []string{"fig2-sweep:sweep_tasksets_per_s"},
		Doc: "heap allocations of the five analyses of one sample on a warm scratch"},
	{Name: "experiments.busy_ratio", Unit: "ratio", Better: "higher", Moves: []string{"fig2-sweep:sweep_tasksets_per_s"},
		Doc: "job busy time / (wall time * workers); serve-*: analysis-slot busy time / (wall time * workers)"},

	// serve-repeat: the request path.
	{Name: "server.fast_hit_us", Unit: "us", Better: "lower", Moves: []string{"serve-repeat:latency_p50_ms", "serve-repeat:sweep_tasksets_per_s"},
		Doc: "ServeHTTP time of byte-identical repeats"},
	{Name: "server.semantic_hit_us", Unit: "us", Better: "lower", Moves: []string{"serve-repeat:latency_p50_ms", "serve-repeat:sweep_tasksets_per_s"},
		Doc: "ServeHTTP time of permuted repeats"},
	{Name: "server.miss_us", Unit: "us", Better: "lower", Moves: []string{"serve-repeat:latency_p50_ms", "serve-repeat:sweep_tasksets_per_s"},
		Doc: "ServeHTTP time of fresh tasksets"},
	{Name: "server.transport_us", Unit: "us", Better: "lower", Moves: []string{"serve-repeat:latency_p50_ms"},
		Doc: "client send-to-response time minus ServeHTTP time"},
	{Name: "server.bodykey_us", Unit: "us", Better: "lower", Moves: []string{"serve-repeat:latency_p50_ms"},
		Doc: "shadow: SHA-256 of the raw body, the exact-body cache key"},
	{Name: "obs.request_us", Unit: "us", Better: "lower", Moves: []string{"serve-repeat:latency_p50_ms"},
		Doc: "shadow: the per-request observability calls (request ID, trace, ring, Server-Timing)"},
	{Name: "model.decode_us", Unit: "us", Better: "lower", Moves: []string{"serve-repeat:latency_p50_ms"},
		Doc: "shadow: JSON decode of an analyze body"},
	{Name: "model.finalize_us", Unit: "us", Better: "lower", Moves: []string{"serve-repeat:latency_p50_ms"},
		Doc: "shadow: Taskset.Finalize of the decoded taskset"},
	{Name: "model.hash_us", Unit: "us", Better: "lower", Moves: []string{"serve-repeat:latency_p50_ms", "serve-whatif:latency_p50_ms"},
		Doc: "shadow: Taskset.Hash"},
	{Name: "server.encode_us", Unit: "us", Better: "lower", Moves: []string{"serve-repeat:latency_p50_ms"},
		Doc: "shadow: JSON encode of the AnalyzeResponse"},
	{Name: "store.put_us", Unit: "us", Better: "lower", Moves: []string{"serve-repeat:latency_p50_ms", "serve-whatif:latency_p50_ms"},
		Doc: "shadow: store.Put of one method result"},
	{Name: "store.get_miss_us", Unit: "us", Better: "lower", Moves: []string{"serve-repeat:latency_p50_ms"},
		Doc: "shadow: store.Get of an absent key"},
	{Name: "server.analysis_span_us", Unit: "us", Better: "lower", Moves: []string{"serve-repeat:latency_p50_ms"},
		Doc: "analysis spans per miss, summed, from the Server-Timing header"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: []string{"serve-repeat:latency_p50_ms"},
		Doc: "cache_hits / (cache_hits + cache_misses) from /v1/metrics"},
	{Name: "server.analyses_per_miss", Unit: "ratio", Better: "lower", Moves: []string{"serve-repeat:sweep_tasksets_per_s"},
		Doc: "analyses executed per fresh-taskset request"},
	{Name: "server.coalesced", Unit: "count", Better: "higher", Moves: []string{"serve-repeat:sweep_tasksets_per_s"},
		Doc: "coalesced flights during the traced phase"},
	{Name: "server.rejected", Unit: "count", Better: "lower", Moves: []string{"serve-repeat:success_ratio"},
		Doc: "admission rejections (429) during the traced phase"},
	{Name: "loadgen.lag_p99_ms", Unit: "ms", Better: "lower", Moves: []string{"serve-repeat:latency_p50_ms", "serve-whatif:latency_p50_ms"},
		Doc: "p99 of send time minus due time"},
	{Name: "ledger.fast_hit_pct", Unit: "%", Better: "higher",
		Doc: "share of fast-hit ServeHTTP time the layer self times account for"},
	{Name: "ledger.semantic_hit_pct", Unit: "%", Better: "higher",
		Doc: "share of semantic-hit ServeHTTP time the layer self times account for"},
	{Name: "ledger.miss_pct", Unit: "%", Better: "higher",
		Doc: "share of miss ServeHTTP time the layer self times account for"},

	// serve-whatif: the delta path.
	{Name: "server.delta_us", Unit: "us", Better: "lower", Moves: []string{"serve-whatif:latency_p50_ms"},
		Doc: "ServeHTTP time of fresh what-if queries"},
	{Name: "server.delta_hit_ratio", Unit: "ratio", Better: "higher", Moves: []string{"serve-whatif:latency_p50_ms"},
		Doc: "delta_hits / (delta_hits + delta_fallbacks) from /v1/metrics"},
	{Name: "server.delta_retry_ratio", Unit: "ratio", Better: "lower", Moves: []string{"serve-whatif:latency_p50_ms"},
		Doc: "queries re-sent with base_taskset after a 400 unknown-base"},
	{Name: "model.apply_patch_us", Unit: "us", Better: "lower", Moves: []string{"serve-whatif:latency_p50_ms"},
		Doc: "shadow: model.ApplyPatch"},
	{Name: "analysis.delta_apply_us", Unit: "us", Better: "lower", Moves: []string{"serve-whatif:latency_p50_ms"},
		Doc: "shadow: Delta.ApplyTo on the benchmark's own retained states"},
	{Name: "analysis.delta_cold_us", Unit: "us", Better: "lower",
		Doc: "shadow: cold TestWith of the same patched taskset"},
	{Name: "analysis.delta_speedup", Unit: "x", Better: "higher", Moves: []string{"serve-whatif:latency_p50_ms"},
		Doc: "delta_cold_us / delta_apply_us"},
	{Name: "analysis.delta_reused_ratio", Unit: "ratio", Better: "higher", Moves: []string{"serve-whatif:latency_p50_ms"},
		Doc: "reused / (reused + recomputed) task analyses, from the response delta field"},
	{Name: "analysis.delta_matched_round_ratio", Unit: "ratio", Better: "higher", Moves: []string{"serve-whatif:latency_p50_ms"},
		Doc: "matched_rounds / rounds, from the response delta field"},
	{Name: "server.delta_states", Unit: "count", Better: "lower", Moves: []string{"serve-whatif:heap_peak_mb"},
		Doc: "retained delta states at the end of the run, from /v1/metrics"},

	// All workloads.
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower",
		Doc: "traced minus untraced cost of the same work, as a share of the untraced cost"},
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
