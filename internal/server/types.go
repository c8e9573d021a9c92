package server

import (
	"fmt"
	"strings"

	"dpcpp/internal/analysis"
	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
)

// AnalyzeRequest is the body of POST /v1/analyze: one taskset and the
// methods to run on it. The taskset uses the same JSON schema as
// cmd/taskgen output and audit fixtures (model.Taskset).
type AnalyzeRequest struct {
	Taskset *model.Taskset `json:"taskset"`
	// Methods selects the analyses; empty means all five. A repeated name
	// counts once.
	Methods []string `json:"methods,omitempty"`
	// PathCap bounds EP path enumeration (0 = the analysis default).
	PathCap int `json:"path_cap,omitempty"`
	// Placement selects the DPCP-p resource-placement heuristic:
	// "wfd" (default, Algorithm 2) or "ffd".
	Placement string `json:"placement,omitempty"`
	// Explain adds the Theorem 1 per-task breakdown to DPCP-p-EP results.
	Explain bool `json:"explain,omitempty"`
	// TimeoutMS bounds this request's analysis latency in milliseconds; the
	// tighter of it and the server's -request-timeout applies. Past the
	// bound the request gets a structured 503 with timeout=true and its
	// queued work is abandoned (0 = no per-request bound).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BatchRequest is the body of POST /v1/analyze/batch: many tasksets
// analyzed under one shared option set, fanned out over the worker pool.
type BatchRequest struct {
	Tasksets  []*model.Taskset `json:"tasksets"`
	Methods   []string         `json:"methods,omitempty"`
	PathCap   int              `json:"path_cap,omitempty"`
	Placement string           `json:"placement,omitempty"`
	// TimeoutMS bounds the whole batch's analysis latency in milliseconds
	// (see AnalyzeRequest.TimeoutMS).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// MethodResult is one method's verdict for one taskset: the wire form of
// partition.Result plus the optional explain breakdown. It is what the
// result cache stores, so cache hits serve responses without touching the
// analysis engine.
type MethodResult struct {
	Schedulable bool `json:"schedulable"`
	// WCRT maps task IDs to response-time bounds (omitted when the
	// analysis rejected the set before producing bounds).
	WCRT map[rt.TaskID]rt.Time `json:"wcrt,omitempty"`
	// Rounds is the number of outer partitioning iterations.
	Rounds int `json:"rounds"`
	// Reason explains a rejection.
	Reason string `json:"reason,omitempty"`
	// Explain carries the Theorem 1 breakdown (DPCP-p-EP with
	// explain=true only).
	Explain []analysis.Breakdown `json:"explain,omitempty"`
}

// AnalyzeResponse is the body of a successful POST /v1/analyze: the
// taskset's content address and one result per requested method.
type AnalyzeResponse struct {
	// Hash is the canonical content address of the analyzed taskset
	// (model.Taskset.Hash); identical tasksets always return identical
	// hashes, which is exactly the cache/coalescing key prefix.
	Hash    string                   `json:"hash"`
	Results map[string]*MethodResult `json:"results"`
}

// BatchResponse is the body of a successful POST /v1/analyze/batch, with
// Results[i] corresponding to Tasksets[i] of the request.
type BatchResponse struct {
	Results []*AnalyzeResponse `json:"results"`
}

// GridPoint is one NDJSON line of GET /v1/grid: the acceptance counts of
// one utilization point, emitted the moment the pool finishes the point's
// last sample. Points stream in completion order; Point indexes into the
// scenario's ascending utilization sweep.
type GridPoint struct {
	Point       int            `json:"point"`
	Utilization float64        `json:"utilization"`
	Normalized  float64        `json:"normalized"`
	Total       int            `json:"total"`
	GenFailures int            `json:"gen_failures,omitempty"`
	Accepted    map[string]int `json:"accepted"`
}

// GridDone is the trailing NDJSON line of a completed grid stream, letting
// clients distinguish completion from truncation.
type GridDone struct {
	Done   bool `json:"done"`
	Points int  `json:"points"`
}

// SweepRequest is the body of POST /v1/sweeps: a whole acceptance-curve
// campaign — one or more scenarios swept asynchronously as a background
// job. Scenario names use the grid endpoint's syntax ("2a".."2d" or "g<i>"
// for the 216-scenario grid).
type SweepRequest struct {
	Scenarios []string `json:"scenarios"`
	// N is the per-point sample count (absent = 25). Pointers distinguish
	// absent from explicit values so that, e.g., an explicit seed of 0
	// means seed 0 exactly as it does on GET /v1/grid.
	N *int `json:"n,omitempty"`
	// Seed is the base seed (absent = 2020), derived per sample exactly
	// like GET /v1/grid and the CLI sweeps.
	Seed *int64 `json:"seed,omitempty"`
	// Methods selects the analyses; empty means all five. A repeated name
	// counts once.
	Methods []string `json:"methods,omitempty"`
	// PathCap bounds EP path enumeration (0 = the analysis default).
	PathCap int `json:"path_cap,omitempty"`
	// Placement selects the DPCP-p resource-placement heuristic
	// ("wfd"/"ffd").
	Placement string `json:"placement,omitempty"`
}

// SweepAccepted is the 202 body of POST /v1/sweeps.
type SweepAccepted struct {
	ID string `json:"id"`
	// Points is the total utilization-point count across every scenario
	// of the sweep (the unit of progress and checkpointing).
	Points int `json:"points"`
}

// SweepScenarioStatus is one scenario's progress within a sweep job.
type SweepScenarioStatus struct {
	Scenario string `json:"scenario"`
	Points   int    `json:"points"`
	Done     int    `json:"done"`
}

// SweepStatus is the body of GET /v1/sweeps/{id}: job state plus per-
// scenario progress in points completed.
type SweepStatus struct {
	ID    string `json:"id"`
	State string `json:"state"` // queued | running | paused (runner queue full at startup) | done | failed
	Error string `json:"error,omitempty"`
	N     int    `json:"n"`
	Seed  int64  `json:"seed"`
	// Methods is the canonicalized method subset the sweep runs.
	Methods   []string              `json:"methods"`
	Scenarios []SweepScenarioStatus `json:"scenarios"`
}

// SweepList is the body of GET /v1/sweeps, jobs in creation order.
type SweepList struct {
	Sweeps []SweepStatus `json:"sweeps"`
}

// SweepScenarioResult is one scenario's acceptance curve within a sweep's
// results: Points is indexed by utilization point, with nil entries for
// points that have not completed yet.
type SweepScenarioResult struct {
	Scenario string       `json:"scenario"`
	Points   []*GridPoint `json:"points"`
}

// SweepResults is the body of GET /v1/sweeps/{id}/results. For a job in
// state "done" every point is present, and — by SampleSeed determinism —
// identical to what GET /v1/grid or the CLI would have produced for the
// same (scenario, n, seed), regardless of restarts in between.
type SweepResults struct {
	ID        string                `json:"id"`
	State     string                `json:"state"`
	Scenarios []SweepScenarioResult `json:"scenarios"`
}

// DeltaRequest is the body of POST /v1/analyze/delta: a what-if query
// against a base taskset, expressed as a patch. The server applies the
// patch once and answers the patched taskset exactly as POST /v1/analyze
// would, through the same result cache, flight and store; the endpoint
// saves the client from uploading the base again, not the server from
// analyzing. Base names the base by its canonical hash (the hash POST
// /v1/analyze or an earlier delta reply returned), which works while the
// server retains that taskset. BaseTaskset re-supplies the full base so a
// server that has evicted (or never seen) it can retain it again. Every
// answered query retains its base and its patched taskset under their
// hashes, whatever their verdicts, so later patches against either can
// quote the hash alone. At least one of Base and BaseTaskset must be
// present; when both are, they must agree.
type DeltaRequest struct {
	Base        string         `json:"base,omitempty"`
	BaseTaskset *model.Taskset `json:"base_taskset,omitempty"`
	// Patch is the edit to apply (model.Patch): a list of operations such
	// as set_wcet, set_cslen, set_request, add_edge, set_period,
	// add_task. Invalid patches get a structured 400 carrying the
	// offending operation (errorResponse.Patch).
	Patch model.Patch `json:"patch"`
	// Methods selects the analyses; empty means both DPCP-p-EP and
	// DPCP-p-EN. Any of the five methods may be listed; a repeated name
	// counts once.
	Methods []string `json:"methods,omitempty"`
	// PathCap and Placement are the options of the patched taskset's
	// analyses, as on POST /v1/analyze. A retained base is found by its
	// hash alone, whatever options or methods earlier queries used.
	PathCap   int    `json:"path_cap,omitempty"`
	Placement string `json:"placement,omitempty"`
	// TimeoutMS bounds this request's analysis latency in milliseconds
	// (see AnalyzeRequest.TimeoutMS).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// DeltaInfo reports how one method's delta query was answered.
type DeltaInfo struct {
	// Incremental is true when this request's own flight analyzed the
	// patched taskset; false when the verdict came from the result cache,
	// the store or another request's flight.
	Incremental bool `json:"incremental"`
	// Rounds counts the partitioning rounds of the analysis this request
	// ran (set only when Incremental).
	Rounds int `json:"rounds,omitempty"`
	// MatchedRounds, Reused and Recomputed are always zero; they stay
	// because perfbench reads them.
	MatchedRounds int `json:"matched_rounds,omitempty"`
	Reused        int `json:"reused,omitempty"`
	Recomputed    int `json:"recomputed,omitempty"`
}

// DeltaResponse is the body of a successful POST /v1/analyze/delta. Hash
// is the patched taskset's canonical hash — the same value POST
// /v1/analyze would return for the edited taskset, and the base to quote
// for the next patch in a chain.
type DeltaResponse struct {
	BaseHash string                   `json:"base_hash"`
	Hash     string                   `json:"hash"`
	Results  map[string]*MethodResult `json:"results"`
	Delta    map[string]*DeltaInfo    `json:"delta"`
}

// errorResponse is the structured body of every 4xx/5xx response. Timeout
// marks a 503 caused by an analysis deadline (server -request-timeout or
// the request's timeout_ms) so clients can distinguish "overloaded, back
// off" from "this exact request overran its budget; an immediate retry may
// hit the cache". Patch carries the structured rejection of an invalid
// /v1/analyze/delta patch (operation index, machine-readable code).
type errorResponse struct {
	Error   string            `json:"error"`
	Code    int               `json:"code"`
	Timeout bool              `json:"timeout,omitempty"`
	Patch   *model.PatchError `json:"patch,omitempty"`
}

// parsePlacement resolves the placement-heuristic name.
func parsePlacement(name string) (partition.PlacementHeuristic, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "wfd":
		return partition.WFD, nil
	case "ffd":
		return partition.FFD, nil
	default:
		return partition.WFD, fmt.Errorf("unknown placement %q (known: wfd, ffd)", name)
	}
}
