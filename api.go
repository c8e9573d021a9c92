package dpcpp

import (
	"math/rand"
	"time"

	"dpcpp/internal/analysis"
	"dpcpp/internal/audit"
	"dpcpp/internal/experiments"
	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
	"dpcpp/internal/server"
	"dpcpp/internal/sim"
	"dpcpp/internal/store"
	"dpcpp/internal/taskgen"
)

// Core model types.
type (
	// Time is a duration or instant in nanoseconds.
	Time = rt.Time
	// Priority is a base priority; larger means higher.
	Priority = rt.Priority
	// TaskID identifies a task.
	TaskID = rt.TaskID
	// VertexID identifies a vertex within a task's DAG.
	VertexID = rt.VertexID
	// ResourceID identifies a shared resource.
	ResourceID = rt.ResourceID
	// ProcID identifies a processor.
	ProcID = rt.ProcID
	// Task is a sporadic DAG task.
	Task = model.Task
	// Taskset is a set of DAG tasks sharing resources and processors.
	Taskset = model.Taskset
	// Path is one complete path through a task's DAG.
	Path = model.Path
	// PathView is the signature-collapsed summary of all complete paths
	// sharing one per-resource request vector; the EP analysis consumes
	// views, not concrete paths.
	PathView = model.PathView
	// ViewScratch is the reusable working memory of
	// Task.EnumerateViews; see its ownership contract there.
	ViewScratch = model.ViewScratch
)

// Time units re-exported for fixture building.
const (
	Nanosecond  = rt.Nanosecond
	Microsecond = rt.Microsecond
	Millisecond = rt.Millisecond
	Second      = rt.Second
)

// NewTaskset returns an empty taskset for m processors and nr resources.
func NewTaskset(m, nr int) *Taskset { return model.NewTaskset(m, nr) }

// NewTask returns an empty task with the given identity and timing.
func NewTask(id TaskID, period, deadline Time) *Task { return model.NewTask(id, period, deadline) }

// Analysis methods and entry points.
type (
	// Method selects a schedulability analysis.
	Method = analysis.Method
	// Options tunes an analysis run.
	Options = analysis.Options
	// Result is the outcome of partitioning + analysis.
	Result = partition.Result
	// Partition maps tasks to clusters and global resources to processors.
	Partition = partition.Partition
)

// The five methods the paper compares.
const (
	DPCPpEP = analysis.DPCPpEP
	DPCPpEN = analysis.DPCPpEN
	SPIN    = analysis.SPIN
	LPP     = analysis.LPP
	FEDFP   = analysis.FEDFP
)

// Methods lists every implemented method in the paper's comparison order.
func Methods() []Method { return analysis.Methods() }

// Test runs the full schedulability pipeline (partitioning + analysis).
func Test(m Method, ts *Taskset, opts Options) Result { return analysis.Test(m, ts, opts) }

// Scratch is the reusable working memory of the DPCP-p analyses; recycling
// one across TestWith calls drives steady-state analysis allocations to
// zero. One goroutine at a time per scratch.
type Scratch = analysis.Scratch

// NewScratch returns an empty analysis scratch for TestWith.
func NewScratch() *Scratch { return analysis.NewScratch() }

// TestWith is Test computing through a caller-recycled scratch (nil falls
// back to a private one); the Result never references the scratch.
func TestWith(sc *Scratch, m Method, ts *Taskset, opts Options) Result {
	return analysis.TestWith(sc, m, ts, opts)
}

// Schedulable returns only the verdict of Test.
func Schedulable(m Method, ts *Taskset, opts Options) bool {
	return analysis.Schedulable(m, ts, opts)
}

// What-if analysis: patches and the bases they apply to.
type (
	// Patch is a canonical edit script against a finalized taskset.
	Patch = model.Patch
	// PatchOp is one edit; see the Op* constants in internal/model.
	PatchOp = model.PatchOp
	// PatchError reports the first structurally invalid op in a patch.
	PatchError = model.PatchError
	// PatchDelta is the empty second result of ApplyPatch.
	PatchDelta = model.PatchDelta
	// Delta is the base of a what-if chain: a taskset an EP/EN analysis
	// found schedulable, with its method and options. Apply patches it and
	// analyzes the patched taskset in full.
	Delta = analysis.Delta
	// DeltaStats is the empty second result of Delta.ApplyTo.
	DeltaStats = analysis.DeltaStats
)

// ApplyPatch applies p to a finalized taskset, returning the patched
// finalized taskset (the receiver is never mutated). The returned
// PatchDelta is always empty.
func ApplyPatch(ts *Taskset, p Patch) (*Taskset, *PatchDelta, error) {
	return model.ApplyPatch(ts, p)
}

// NewDelta runs a full analysis and returns the taskset as a what-if base
// for later Apply calls. The state is nil (with a valid Result) for
// methods other than DPCP-p-EP/EN and for unschedulable results.
func NewDelta(sc *Scratch, m Method, ts *Taskset, opts Options) (Result, *Delta) {
	return analysis.NewDelta(sc, m, ts, opts)
}

// Taskset synthesis (Sec. VII-A).
type (
	// Scenario is one experimental configuration.
	Scenario = taskgen.Scenario
	// Generator synthesizes tasksets for a scenario.
	Generator = taskgen.Generator
	// IntRange is an inclusive integer range.
	IntRange = taskgen.IntRange
	// TimeRange is an inclusive duration range.
	TimeRange = taskgen.TimeRange
)

// NewGenerator returns a Generator with the paper's defaults.
func NewGenerator(s Scenario) *Generator { return taskgen.NewGenerator(s) }

// Grid returns the paper's full 216-scenario grid.
func Grid() []Scenario { return taskgen.Grid() }

// Fig2Scenario returns the configuration of one Fig. 2 subplot
// ("2a".."2d").
func Fig2Scenario(sub string) (Scenario, error) { return taskgen.Fig2Scenario(sub) }

// UtilizationPoints returns the paper's utilization sweep for m processors.
func UtilizationPoints(m int) []float64 { return taskgen.UtilizationPoints(m) }

// RandFixedSum draws n values in [lo,hi] summing to total (Stafford's
// algorithm, as recommended by Emberson et al.).
func RandFixedSum(r *rand.Rand, n int, total, lo, hi float64) ([]float64, error) {
	return taskgen.RandFixedSum(r, n, total, lo, hi)
}

// Simulation.
type (
	// SimConfig tunes a simulation run.
	SimConfig = sim.Config
	// Sim is a discrete-event simulation instance.
	Sim = sim.Sim
	// SimMetrics aggregates a simulation's outcome.
	SimMetrics = sim.Metrics
	// Span is one execution interval on a processor.
	Span = sim.Span
	// CSPlacement controls critical-section placement inside vertices.
	CSPlacement = sim.CSPlacement
)

// Critical-section placements.
const (
	SpreadCS = sim.SpreadCS
	FrontCS  = sim.FrontCS
	BackCS   = sim.BackCS
)

// Protocol selects the simulated runtime protocol.
type Protocol = sim.Protocol

// Runtime protocols: the paper's DPCP-p (remote agents + ceiling), and
// the two local-execution baselines.
const (
	ProtocolDPCPp = sim.ProtocolDPCPp
	ProtocolSpin  = sim.ProtocolSpin
	ProtocolLPP   = sim.ProtocolLPP
)

// Breakdown decomposes a DPCP-p WCRT bound into Theorem 1's terms.
type Breakdown = analysis.Breakdown

// Explain returns per-task breakdowns of the DPCP-p-EP bound under the
// partition, in descending priority order.
func Explain(ts *Taskset, p *Partition, pathCap int) []Breakdown {
	if pathCap <= 0 {
		pathCap = analysis.DefaultPathCap
	}
	return analysis.NewDPCPp(ts, pathCap, false).Explain(p)
}

// NewSim builds a simulator for the taskset under the partition.
func NewSim(ts *Taskset, p *Partition, cfg SimConfig) (*Sim, error) {
	return sim.New(ts, p, cfg)
}

// Gantt renders a trace as an ASCII chart.
func Gantt(spans []Span, numProcs int, horizon, bucket Time) string {
	return sim.Gantt(spans, numProcs, horizon, bucket)
}

// Experiments (Sec. VII).
type (
	// Campaign configures one acceptance-ratio sweep.
	Campaign = experiments.Campaign
	// Curve is the acceptance-ratio data of one scenario.
	Curve = experiments.Curve
	// GridResult aggregates Tables 2 and 3.
	GridResult = experiments.GridResult
)

// RunGrid executes campaigns for a list of scenarios on one shared,
// grid-level worker pool.
func RunGrid(template Campaign, scenarios []Scenario) ([]*Curve, error) {
	return experiments.RunGrid(template, scenarios)
}

// RunGridProgress is RunGrid with a per-scenario completion callback; see
// experiments.RunGridProgress for the callback's concurrency contract.
func RunGridProgress(template Campaign, scenarios []Scenario,
	onCurve func(i int, c *Curve)) ([]*Curve, error) {
	return experiments.RunGridProgress(template, scenarios, onCurve)
}

// Aggregate counts pairwise dominance/outperformance across curves.
func Aggregate(curves []*Curve, methods []Method) *GridResult {
	return experiments.Aggregate(curves, methods)
}

// FormatCurve renders a curve as a text table.
func FormatCurve(c *Curve) string { return experiments.FormatCurve(c) }

// FormatGrid renders Tables 2 and 3.
func FormatGrid(g *GridResult) string { return experiments.FormatGrid(g) }

// Differential soundness audit (internal/audit).
type (
	// AuditConfig tunes one audit run.
	AuditConfig = audit.Config
	// AuditReport aggregates an audit run's outcome.
	AuditReport = audit.Report
	// AuditViolation is one observed invariant breach.
	AuditViolation = audit.Violation
	// AdversarialGenerator synthesizes tasksets outside the paper's grid.
	AdversarialGenerator = taskgen.Adversarial
	// Shape identifies one adversarial taskset family.
	Shape = taskgen.Shape
)

// Adversarial shapes.
const (
	ShapeChain        = taskgen.ShapeChain
	ShapeForkJoin     = taskgen.ShapeForkJoin
	ShapeLayered      = taskgen.ShapeLayered
	ShapeSingleVertex = taskgen.ShapeSingleVertex
	ShapeContention   = taskgen.ShapeContention
)

// NewAdversarial returns the default adversarial taskset generator.
func NewAdversarial() *AdversarialGenerator { return taskgen.NewAdversarial() }

// Audit fuzzes adversarial tasksets and cross-checks every analysis against
// the simulator and against each other; see internal/audit for the
// invariants. Violations come back in the report, each with a shrunken
// reproduction serialized into cfg.FixtureDir.
func Audit(cfg AuditConfig) (*AuditReport, error) { return audit.Run(cfg) }

// ReplayAuditFixture re-runs the full differential audit on a serialized
// taskset (a shrunken counterexample or any cmd/taskgen output).
func ReplayAuditFixture(cfg AuditConfig, path string) ([]AuditViolation, error) {
	return audit.ReplayFixture(cfg, path)
}

// Schedulability-as-a-service (internal/server, cmd/schedd).
type (
	// TasksetHash is the canonical content address of a taskset
	// (Taskset.Hash): a SHA-256 digest of its canonical serialization,
	// stable across JSON round trips and insensitive to task order,
	// names, duplicate edges and unused CS lengths.
	TasksetHash = model.Hash
	// ServerConfig tunes the analysis service.
	ServerConfig = server.Config
	// AnalysisServer is the http.Handler exposing the analysis service:
	// POST /v1/analyze, POST /v1/analyze/batch, GET /v1/grid (NDJSON
	// stream), POST/GET /v1/sweeps (asynchronous sweep jobs),
	// GET /v1/metrics, GET /healthz.
	AnalysisServer = server.Server
	// ServerMetrics is the service's cache/coalescing/admission/store
	// counters.
	ServerMetrics = server.Metrics
	// ResultStore is the on-disk content-addressed result store backing
	// the server's in-memory cache across restarts (ServerConfig.StoreDir).
	ResultStore = store.Store
	// StoreBreaker is the circuit breaker guarding all store I/O: after a
	// threshold of consecutive errors the service stops touching the disk
	// and serves from compute alone, probing periodically until it heals.
	// Its state is surfaced via /healthz and ServerMetrics.StoreState.
	StoreBreaker = store.Breaker
	// StoreHooks are fault-injection points (read/write/rename) for
	// exercising the service's crash and I/O-error paths in tests.
	StoreHooks = store.Hooks
)

// ErrTornWrite, returned from a StoreHooks.BeforeRename hook, simulates a
// torn write: data written and success reported, but the rename that would
// commit it never happens — the crash-after-ack case.
var ErrTornWrite = store.ErrTornWrite

// NewStoreBreaker returns a closed circuit breaker that opens after
// threshold consecutive errors and admits one probe per probe interval.
func NewStoreBreaker(threshold int, probe time.Duration) *StoreBreaker {
	return store.NewBreaker(threshold, probe)
}

// NewServer builds the analysis service: content-addressed result caching
// keyed by TasksetHash (optionally persisted across restarts via
// cfg.StoreDir), singleflight coalescing of concurrent identical requests,
// bounded admission over the shared worker pool, and durable asynchronous
// sweep jobs. Call Close on the returned server during shutdown to
// checkpoint sweep progress. See cmd/schedd for the daemon wrapping it.
func NewServer(cfg ServerConfig) (*AnalysisServer, error) { return server.New(cfg) }

// OpenResultStore opens (creating if needed) a persistent result store
// rooted at dir, the same layout ServerConfig.StoreDir uses.
func OpenResultStore(dir string) (*ResultStore, error) { return store.Open(dir) }
