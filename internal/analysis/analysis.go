// Package analysis implements the schedulability analyses the paper
// evaluates: the DPCP-p worst-case response-time analysis of Sec. IV in its
// EP (enumerate paths) and EN (enumerate request counts) variants, and the
// three baselines of Sec. VII-B — SPIN-SON (FIFO spin locks), LPP
// (suspension-based semaphores) and FED-FP (federated scheduling ignoring
// resources). Each analysis plugs into the partitioning loop of
// internal/partition as a partition.Analyzer.
//
//schedlint:deterministic
package analysis

import (
	"fmt"
	"slices"
	"strings"

	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
)

// Method selects one of the analyses under comparison.
type Method string

const (
	// DPCPpEP is DPCP-p with per-path analysis (Sec. IV, enumerate paths).
	DPCPpEP Method = "DPCP-p-EP"
	// DPCPpEN is DPCP-p with path-oblivious per-term bounds (the paper's
	// baseline that enumerates the per-resource request counts).
	DPCPpEN Method = "DPCP-p-EN"
	// SPIN is the FIFO spin-lock baseline (SPIN-SON, Dinh et al.).
	SPIN Method = "SPIN-SON"
	// LPP is the suspension-based semaphore baseline (Jiang et al.).
	LPP Method = "LPP"
	// FEDFP is federated scheduling with resources ignored (Li et al.).
	FEDFP Method = "FED-FP"
)

// Methods lists every implemented method in the paper's comparison order.
func Methods() []Method { return []Method{DPCPpEP, DPCPpEN, SPIN, LPP, FEDFP} }

// ParseMethods resolves a list of method names; an empty list means all of
// Methods(). Each name is trimmed of surrounding space and must name a
// method. A repeated method is kept once, at its first occurrence, so a
// method is never analyzed or reported twice for one request.
func ParseMethods(names []string) ([]Method, error) {
	if len(names) == 0 {
		return Methods(), nil
	}
	out := make([]Method, 0, len(names))
	for _, name := range names {
		m := Method(strings.TrimSpace(name))
		if !slices.Contains(Methods(), m) {
			return nil, fmt.Errorf("unknown method %q (known: %v)", m, Methods())
		}
		if !slices.Contains(out, m) {
			out = append(out, m)
		}
	}
	return out, nil
}

// Options tunes an analysis run.
type Options struct {
	// PathCap bounds EP path enumeration per task; tasks whose DAGs exceed
	// it fall back to the (sound) EN bounds. <= 0 means the default.
	PathCap int
	// Placement selects the resource-placement heuristic for DPCP-p
	// (Algorithm 2 WFD by default; FFD as an ablation).
	Placement partition.PlacementHeuristic
}

// SemanticsVersion names what the analyses answer: the verdict, WCRTs and
// reason every method returns for a given taskset and options. Result
// caches and stores key on it, so a result computed by older code is never
// served as this code's answer. Bump it with any change to those answers;
// TestSemanticsFingerprint pins them by semanticsFingerprint and fails
// until both are updated together.
const SemanticsVersion = 1

// semanticsFingerprint is the SHA-256, in hex, of the verdicts, WCRTs and
// reasons of every method over the equivalence corpus of the analysis
// tests, as computed by SemanticsVersion's code.
const semanticsFingerprint = "920b2e86e455d27d67b0d56590d343faa06484e880e6a4e44ff6c532113d14dd"

// DefaultPathCap bounds path enumeration when Options.PathCap is unset.
const DefaultPathCap = 4096

func (o Options) pathCap() int {
	if o.PathCap > 0 {
		return o.PathCap
	}
	return DefaultPathCap
}

// Test runs the full schedulability pipeline for the method: processor
// assignment (with resource placement for DPCP-p) plus the method's
// response-time analysis, returning the partitioning result.
func Test(m Method, ts *model.Taskset, opts Options) partition.Result {
	return TestWith(nil, m, ts, opts)
}

// TestWith is Test computing through a caller-recycled Scratch (nil falls
// back to a private one). Repeated analyses on one scratch — the
// steady-state of a grid sweep — reuse every arena and map the hot path
// touches, so an EN or EP taskset test settles at (near-)zero allocations.
// The Result is entirely scratch-independent: it may be retained while the
// scratch moves on to the next taskset. A Scratch serves one goroutine at a
// time.
//
// The DPCP-p methods partition with partition.Algorithm1, which gives
// every task, light ones included, processors of its own. Packing several
// light tasks onto one processor (Sec. VI) is partition.AlgorithmMixed,
// which TestWith, and so schedtest, schedd and the audit, never runs: a
// set with more light tasks than processors left over is rejected here.
func TestWith(sc *Scratch, m Method, ts *model.Taskset, opts Options) partition.Result {
	return partitionFor(m, ts, NewAnalyzer(sc, m, ts, opts), opts.Placement)
}

// NewAnalyzer returns m's analyzer over ts. The DPCP-p analyses compute
// through sc (nil gives them a private Scratch); the baselines need none.
// It panics on an unknown method.
func NewAnalyzer(sc *Scratch, m Method, ts *model.Taskset, opts Options) partition.Analyzer {
	switch m {
	case DPCPpEP, DPCPpEN:
		if sc == nil {
			sc = NewScratch()
		}
		return newDPCPp(sc, ts, opts.pathCap(), m == DPCPpEN)
	case SPIN:
		return NewSpin(ts)
	case LPP:
		return NewLPP(ts)
	case FEDFP:
		return NewFedFP(ts)
	default:
		panic(fmt.Sprintf("analysis: unknown method %q", m))
	}
}

// partitionFor runs m's partitioning loop over a: Algorithm 1 with
// resource placement for DPCP-p, without it for the baselines, whose
// requests execute locally.
func partitionFor(m Method, ts *model.Taskset, a partition.Analyzer, h partition.PlacementHeuristic) partition.Result {
	if m == DPCPpEP || m == DPCPpEN {
		return partition.Algorithm1(ts, a, h)
	}
	return partition.IterativeFederated(ts, a)
}

// Schedulable is a convenience wrapper returning only the verdict.
func Schedulable(m Method, ts *model.Taskset, opts Options) bool {
	return Test(m, ts, opts).Schedulable
}

// knownOrDeadline returns the response-time bound to use for eta terms:
// the already-computed WCRT for higher-priority tasks, or the deadline for
// tasks not yet analyzed (sound within the test: if they later fail, the
// whole set is rejected anyway). A WCRTs pass fills the map in priority
// order, so a task's bound never depends on any task below it; that is
// what lets an untilMiss pass stop at the first miss without changing a
// value it computed.
func knownOrDeadline(wcrts map[rt.TaskID]rt.Time, t *model.Task) rt.Time {
	if r, ok := wcrts[t.ID]; ok && r <= t.Deadline {
		return r
	}
	return t.Deadline
}
