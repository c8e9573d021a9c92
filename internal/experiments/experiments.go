// Package experiments regenerates the paper's evaluation (Sec. VII): the
// acceptance-ratio curves of Fig. 2 and the dominance/outperformance
// statistics of Tables 2 and 3, over the full 216-scenario grid or any
// subset of it. Runs are deterministic: every taskset's seed derives from
// the scenario name, the utilization point and the sample index, so
// results are reproducible regardless of worker scheduling.
//
//schedlint:deterministic
package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync/atomic"

	"dpcpp/internal/analysis"
	"dpcpp/internal/model"
	"dpcpp/internal/taskgen"
)

// Campaign configures one acceptance-ratio sweep for one scenario.
type Campaign struct {
	Scenario         taskgen.Scenario
	Methods          []analysis.Method
	TasksetsPerPoint int
	Seed             int64
	Options          analysis.Options
	// Parallelism bounds the worker pool (0 = GOMAXPROCS).
	Parallelism int
}

// Point is one utilization point of an acceptance-ratio curve.
type Point struct {
	Utilization float64                 // total taskset utilization
	Normalized  float64                 // Utilization / m
	Accepted    map[analysis.Method]int // methods with a positive count
	Total       int                     // samples analyzed
	GenFailures int                     // samples whose generation failed
}

// Curve is the acceptance-ratio data of one scenario (one Fig. 2 subplot).
type Curve struct {
	Scenario taskgen.Scenario
	Methods  []analysis.Method
	Points   []Point
}

// Ratio returns the acceptance ratio of the method at point i.
func (c *Curve) Ratio(m analysis.Method, i int) float64 {
	return ratio(c.Points[i].Accepted[m], c.Points[i].Total)
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// TotalAccepted returns how many tasksets the method scheduled across the
// whole sweep (the paper's "scheduled more task sets" outperformance
// metric).
func (c *Curve) TotalAccepted(m analysis.Method) int {
	n := 0
	for i := range c.Points {
		n += c.Points[i].Accepted[m]
	}
	return n
}

// SampleSeed derives the deterministic RNG seed of one sample: a pure
// function of (base seed, scenario name, utilization point, sample index).
// Sweep derives every seed through it, so the same sweep yields
// bit-identical tasksets regardless of which frontend ran it.
func SampleSeed(base int64, scenario string, point, sample int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d|%d", base, scenario, point, sample)
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// retrySeed derives the RNG seed of one generation attempt. Attempt 0 is
// the sample's own seed, so retry-free samples are untouched by the
// discipline; later attempts re-derive through the same FNV hashing as
// SampleSeed. A fixed additive stride (the former seed + attempt*7919)
// is not collision-free: the attempt chains of two samples whose seeds
// differ by a multiple of the stride walk the same seed values, feeding
// identical tasksets into both samples' statistics.
func retrySeed(seed int64, attempt int) int64 {
	if attempt == 0 {
		return seed
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|retry|%d", seed, attempt)
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// GenerateSample draws the taskset of one sample, retrying with derived
// seeds when the structural constraints cannot be met for the drawn
// parameters. The retry discipline is part of the determinism contract:
// callers that reimplement it would diverge from Sweep on hard draws.
func GenerateSample(g *taskgen.Generator, seed int64, util float64) (*model.Taskset, error) {
	var lastErr error
	for attempt := 0; attempt < 16; attempt++ {
		r := rand.New(rand.NewSource(retrySeed(seed, attempt)))
		ts, err := g.Taskset(r, util)
		if err == nil {
			return ts, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// Run sweeps the scenario's utilization points and returns the curve.
func (c Campaign) Run() (*Curve, error) {
	curves, err := RunGrid(c, []taskgen.Scenario{c.Scenario})
	return curves[0], err
}

// Dominates implements the paper's footnote: A dominates B when A's
// acceptance ratio is strictly higher at some tested point and never lower
// at any point.
func Dominates(c *Curve, a, b analysis.Method) bool {
	higherSomewhere := false
	for i := range c.Points {
		ra, rb := c.Ratio(a, i), c.Ratio(b, i)
		if ra < rb {
			return false
		}
		if ra > rb {
			higherSomewhere = true
		}
	}
	return higherSomewhere
}

// Outperforms implements the paper's footnote: A outperforms B when A
// scheduled more tasksets than B over the sweep.
func Outperforms(c *Curve, a, b analysis.Method) bool {
	return c.TotalAccepted(a) > c.TotalAccepted(b)
}

// GridResult aggregates Tables 2 and 3 over a set of scenario curves.
type GridResult struct {
	Methods        []analysis.Method
	Scenarios      int
	Dominance      map[analysis.Method]map[analysis.Method]int
	Outperformance map[analysis.Method]map[analysis.Method]int
}

// Aggregate counts pairwise dominance/outperformance across curves.
func Aggregate(curves []*Curve, methods []analysis.Method) *GridResult {
	g := &GridResult{
		Methods:        methods,
		Scenarios:      len(curves),
		Dominance:      make(map[analysis.Method]map[analysis.Method]int),
		Outperformance: make(map[analysis.Method]map[analysis.Method]int),
	}
	for _, a := range methods {
		g.Dominance[a] = make(map[analysis.Method]int)
		g.Outperformance[a] = make(map[analysis.Method]int)
	}
	for _, c := range curves {
		for _, a := range methods {
			for _, b := range methods {
				if a == b {
					continue
				}
				if Dominates(c, a, b) {
					g.Dominance[a][b]++
				}
				if Outperforms(c, a, b) {
					g.Outperformance[a][b]++
				}
			}
		}
	}
	return g
}

// RunGrid executes campaigns for every scenario in the grid, reusing the
// campaign template's methods, sample count and options. All scenarios
// share one grid-level worker pool (see RunGridProgress), so a 216-scenario
// sweep saturates every core instead of draining scenarios one at a time.
func RunGrid(template Campaign, scenarios []taskgen.Scenario) ([]*Curve, error) {
	return RunGridProgress(template, scenarios, nil)
}

// RunGridProgress is RunGrid with a completion callback: onCurve(i, c) fires
// exactly once per scenario, as soon as every job of scenarios[i] has
// drained, with c == the returned curves[i]. Because scenarios complete in
// work-pool order, callbacks may arrive out of scenario order and are
// invoked from worker goroutines; callbacks must synchronize any shared
// state of their own.
//
// Results are bit-identical to running each scenario's Campaign alone:
// every sample's RNG seed derives from (seed, scenario, point, sample),
// never from worker scheduling. All scenarios run to completion even when
// one fails; the returned error is the failure of the lexicographically
// smallest (scenario, point, sample) job, deterministically.
func RunGridProgress(template Campaign, scenarios []taskgen.Scenario,
	onCurve func(i int, c *Curve)) ([]*Curve, error) {

	ms := template.Methods
	if len(ms) == 0 {
		ms = analysis.Methods()
	}
	sw := Sweep{
		Scenarios: make([]taskgen.Scenario, len(scenarios)),
		Methods:   ms,
		Seed:      template.Seed,
		Samples:   template.TasksetsPerPoint,
		Workers:   template.Parallelism,
	}
	curves := make([]*Curve, len(scenarios))
	left := make([]atomic.Int64, len(scenarios)) // points not yet landed
	for i, s := range scenarios {
		s = s.DefaultStructure()
		sw.Scenarios[i] = s
		n := len(taskgen.UtilizationPoints(s.M))
		curves[i] = &Curve{Scenario: s, Methods: ms, Points: make([]Point, n)}
		left[i].Store(int64(n))
	}
	// One recycled analysis scratch per worker keeps a worker's
	// steady-state sample (almost) allocation-free regardless of sweep size.
	scratch := make([]*analysis.Scratch, Workers(sw.Workers))
	err := sw.Run(context.Background(),
		func(w int, ts *model.Taskset, verdicts []bool) error {
			if scratch[w] == nil {
				scratch[w] = analysis.NewScratch()
			}
			for mi, m := range ms {
				verdicts[mi] = analysis.TestWith(scratch[w], m, ts, template.Options).Schedulable
			}
			return nil
		},
		func(si, pi int, p Point, _ bool) {
			curves[si].Points[pi] = p
			if left[si].Add(-1) == 0 && onCurve != nil {
				onCurve(si, curves[si])
			}
		})
	return curves, err
}
