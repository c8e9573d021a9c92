// Package audit is the differential soundness harness of the repository:
// an always-on fuzzer that generates adversarial tasksets far outside the
// paper's Sec. VII-A grid (internal/taskgen's Shape families), runs every
// schedulability analysis on each, and cross-checks the results against the
// discrete-event simulator and against each other.
//
// The invariants checked per taskset are:
//
//   - Soundness: whenever an analysis certifies the taskset, no simulated
//     execution under the matching runtime protocol — across critical-
//     section placements, release offsets and several (near-)hyperperiods —
//     may miss a deadline, and no task's observed response may exceed its
//     analytical WCRT bound. (FED-FP deliberately ignores shared resources
//     and is cross-checked only on request-free tasksets.)
//   - Protocol invariants: every simulation run must finish with an empty
//     sim.Violations() list, and DPCP-p runs must respect Lemma 1 (at most
//     one lower-priority blocker per request).
//   - EP vs EN: on one identical partition, the per-task DPCP-p-EP bound
//     never exceeds the DPCP-p-EN bound (the EP view collapse is a
//     refinement, never a relaxation).
//   - Monotonicity: inflating every vertex WCET (holding structure,
//     periods, priorities and requests fixed) never shrinks any per-task
//     bound on an identical partition, for every analysis.
//   - Patch: for each certified DPCP-p verdict, a deterministic random
//     patch chain driven through model.ApplyPatch must produce tasksets
//     that hash and analyze bit-identically to the same tasksets rebuilt
//     from their JSON.
//
// Any violating taskset is shrunk to a minimal reproduction (drop tasks,
// then vertices, then halve WCETs and request counts) and serialized via
// model/json into a fixture directory as a permanent regression input;
// violations are reported, never suppressed.
//
// Audit jobs are (taskset, method) pairs drained through the shared
// experiments worker pool (experiments.ParallelFor); cross-method checks
// run when a taskset's last method job completes. Runs are deterministic:
// every generation and simulation seed is a pure function of (base seed,
// taskset index, method), never of worker scheduling.
package audit

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dpcpp/internal/analysis"
	"dpcpp/internal/experiments"
	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/taskgen"
)

// Config tunes one audit run.
type Config struct {
	// Count is the number of adversarial tasksets to generate and check.
	Count int
	// Seed is the base seed; every per-taskset seed derives from it.
	Seed int64
	// Methods restricts the audited analyses (default: all five).
	Methods []analysis.Method
	// SimRuns is the number of release-offset variations simulated per
	// certified (taskset, method) verdict and CS placement: one synchronous
	// release plus SimRuns-1 random offset vectors. Default 3.
	SimRuns int
	// HyperPeriods sets the simulation horizon as a multiple of the longest
	// period (for the near-harmonic contention shape this is a true
	// hyperperiod multiple). Default 3.
	HyperPeriods int
	// TimeBudget stops admitting new tasksets once exceeded (0 = none);
	// tasksets already in flight complete, so reports stay consistent.
	TimeBudget time.Duration
	// Workers bounds the worker pool (0 = GOMAXPROCS).
	Workers int
	// FixtureDir, when non-empty, receives the shrunken JSON reproduction
	// of every violating taskset.
	FixtureDir string
	// PathCap bounds EP path enumeration (0 = analysis default).
	PathCap int
	// Gen overrides the adversarial generator (nil = taskgen.NewAdversarial).
	Gen *taskgen.Adversarial
}

func (c Config) normalized() Config {
	if len(c.Methods) == 0 {
		c.Methods = analysis.Methods()
	}
	if c.SimRuns <= 0 {
		c.SimRuns = 3
	}
	if c.HyperPeriods <= 0 {
		c.HyperPeriods = 3
	}
	// Workers is passed through as-is: experiments.ParallelFor normalizes
	// <= 0 to GOMAXPROCS.
	if c.Gen == nil {
		c.Gen = taskgen.NewAdversarial()
	}
	return c
}

// Violation is one observed invariant breach.
type Violation struct {
	// Index is the taskset's position within the audit run. Seed is the
	// exact generator seed (structural retries already folded in):
	// feeding rand.New(rand.NewSource(Seed)) to the adversarial generator
	// regenerates the taskset, and the simulation offsets derive from
	// Seed too, so a report alone reproduces the violation.
	Index int    `json:"index"`
	Seed  int64  `json:"seed"`
	Shape string `json:"shape"`
	// Method is the analysis involved ("" for cross-method checks).
	Method string `json:"method,omitempty"`
	// Kind classifies the breach: deadline-miss, bound-exceeded,
	// sim-invariant, sim-error, lemma1, ep-exceeds-en, non-monotone,
	// patch-mismatch.
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
	// Fixture is the path of the shrunken reproduction, when written.
	Fixture string `json:"fixture,omitempty"`
}

func (v Violation) String() string {
	return fmt.Sprintf("taskset %d (seed %d, %s) %s[%s]: %s",
		v.Index, v.Seed, v.Shape, v.Kind, v.Method, v.Detail)
}

// Report aggregates one audit run.
type Report struct {
	Count       int            `json:"count"`        // tasksets requested
	Generated   int            `json:"generated"`    // tasksets generated and checked
	GenFailures int            `json:"gen_failures"` // generation attempts that failed structurally
	Skipped     int            `json:"skipped"`      // tasksets skipped by the time budget
	ByShape     map[string]int `json:"by_shape"`
	Schedulable map[string]int `json:"schedulable"` // certified verdicts per method
	Packed      map[string]int `json:"packed"`      // certified verdicts whose partition packs light tasks (Sec. VI)
	SimRuns     int64          `json:"sim_runs"`
	CrossChecks int            `json:"cross_checks"` // tasksets with EP/EN + monotonicity checks
	DeltaChecks int            `json:"delta_checks"` // patch chains driven through the patch leg
	Violations  []Violation    `json:"violations"`
	ElapsedSec  float64        `json:"elapsed_seconds"`
	TimedOut    bool           `json:"timed_out"`
}

// seedFor derives a deterministic per-(index, stage) seed.
func seedFor(base int64, index int, stage string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%s", base, index, stage)
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// cell is the shared state of one taskset's method jobs.
type cell struct {
	once      sync.Once
	set       *genTaskset
	results   []methodVerdict // indexed like cfg.Methods
	ran       []bool
	remaining atomic.Int64
	skipped   bool
}

// Run executes the audit and returns its report. Violations are returned
// in the report (sorted by taskset index), never as an error; the only
// hard failures are configuration mistakes.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.normalized()
	if cfg.Count <= 0 {
		return nil, fmt.Errorf("audit: non-positive count %d", cfg.Count)
	}
	start := time.Now()
	var deadline time.Time
	if cfg.TimeBudget > 0 {
		deadline = start.Add(cfg.TimeBudget)
	}

	rep := &Report{
		Count:       cfg.Count,
		ByShape:     make(map[string]int),
		Schedulable: make(map[string]int),
		Packed:      make(map[string]int),
	}
	cells := make([]cell, cfg.Count)
	for i := range cells {
		cells[i].results = make([]methodVerdict, len(cfg.Methods))
		cells[i].ran = make([]bool, len(cfg.Methods))
		cells[i].remaining.Store(int64(len(cfg.Methods)))
	}

	var mu sync.Mutex // guards rep
	var simRuns atomic.Int64

	nm := len(cfg.Methods)
	experiments.ParallelFor(cfg.Workers, cfg.Count*nm, func(_, idx int) {
		i, mi := idx/nm, idx%nm
		c := &cells[i]
		c.once.Do(func() {
			if !deadline.IsZero() && time.Now().After(deadline) {
				c.skipped = true
				return
			}
			c.set = generate(cfg, i)
		})
		if !c.skipped && c.set.err == nil {
			c.results[mi] = checkMethod(cfg, c.set, mi, &simRuns)
			c.ran[mi] = true
		}
		if c.remaining.Add(-1) != 0 {
			return
		}
		// Last method job of taskset i: cross-method checks + fold.
		var vs []Violation
		crossed := false
		chains := 0
		if c.set != nil && c.set.err == nil && allRan(c.ran) {
			for _, r := range c.results {
				vs = append(vs, r.violations...)
			}
			vs = append(vs, crossChecks(cfg, c.set, c.results)...)
			var pvs []Violation
			pvs, chains = patchChecks(cfg, c.set, c.results)
			vs = append(vs, pvs...)
			crossed = true
		}
		if len(vs) > 0 {
			vs = shrinkAndFix(cfg, c.set, vs)
		}
		mu.Lock()
		defer mu.Unlock()
		switch {
		case c.skipped:
			rep.Skipped++
		case c.set.err != nil:
			rep.GenFailures++
		default:
			rep.Generated++
			rep.ByShape[c.set.label]++
			for mi2, r := range c.results {
				if c.ran[mi2] && r.res.Schedulable {
					rep.Schedulable[string(cfg.Methods[mi2])]++
					if packs(r.res.Partition) {
						rep.Packed[string(cfg.Methods[mi2])]++
					}
				}
			}
			if crossed {
				rep.CrossChecks++
			}
			rep.DeltaChecks += chains
			rep.Violations = append(rep.Violations, vs...)
		}
	})

	sort.Slice(rep.Violations, func(a, b int) bool {
		if rep.Violations[a].Index != rep.Violations[b].Index {
			return rep.Violations[a].Index < rep.Violations[b].Index
		}
		return rep.Violations[a].Kind < rep.Violations[b].Kind
	})
	rep.SimRuns = simRuns.Load()
	rep.ElapsedSec = time.Since(start).Seconds()
	rep.TimedOut = rep.Skipped > 0
	return rep, nil
}

// packs reports whether the partition runs some light task on a shared
// processor (Sec. VI).
func packs(p *partition.Partition) bool {
	return slices.ContainsFunc(p.TS.Tasks, func(t *model.Task) bool { return p.IsShared(t.ID) })
}

func allRan(ran []bool) bool {
	for _, ok := range ran {
		if !ok {
			return false
		}
	}
	return true
}

// genTaskset is one generated taskset plus its provenance. label is the
// shape name for generated tasksets and "fixture" for replayed ones.
type genTaskset struct {
	index int
	seed  int64
	label string
	ts    *model.Taskset
	err   error
}

// generate draws taskset i; a handful of structural retries mirrors the
// experiment harness. The recorded seed is the one of the successful
// attempt, so reports and fixture names always name a seed that
// regenerates the taskset directly.
func generate(cfg Config, i int) *genTaskset {
	base := seedFor(cfg.Seed, i, "gen")
	g := &genTaskset{index: i, seed: base}
	var lastErr error
	for attempt := 0; attempt < 8; attempt++ {
		seed := base + int64(attempt)*7919
		r := rand.New(rand.NewSource(seed))
		ts, shape, err := cfg.Gen.Taskset(r)
		if err == nil {
			g.ts, g.label, g.seed = ts, shape.String(), seed
			return g
		}
		lastErr = err
	}
	g.err = lastErr
	return g
}
