package experiments

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"dpcpp/internal/analysis"
	"dpcpp/internal/model"
	"dpcpp/internal/taskgen"
)

// Sweep is the one driver of (scenario, utilization point, sample) jobs:
// Campaign.Run, RunGrid and RunGridProgress, the analysis server's
// streaming GET /v1/grid and its resumable sweep-job runner all drain their
// work through it. One work-conserving pool (ParallelFor) walks the flat
// job order (scenario, then point, then sample) across every scenario, so
// a multi-scenario sweep keeps all cores busy instead of idling through
// each scenario's tail.
//
// Determinism: every sample's taskset is GenerateSample at
// SampleSeed(Seed, scenario, point, sample) — a pure function, independent
// of which other points run or how workers interleave — and the per-point
// tallies are commutative sums. Running points {7} alone therefore draws
// bit-identical tasksets to a full sweep's point 7, which is what makes
// checkpoint/resume exact.
type Sweep struct {
	// Scenarios must have their structure resolved (DefaultStructure).
	Scenarios []taskgen.Scenario
	// Methods are the analyses test decides, in verdict-slice order.
	Methods []analysis.Method
	// Seed is the base seed every sample seed derives from.
	Seed int64
	// Samples is the per-point sample count (<= 0 means 25, matching
	// Campaign).
	Samples int
	// Points selects utilization-point indices (into
	// taskgen.UtilizationPoints(M)) per scenario: nil runs every point of
	// every scenario, otherwise Points[i] lists scenario i's points. A
	// scenario's points run in ascending order whatever the list order.
	Points [][]int
	// Workers bounds the pool (<= 0 = GOMAXPROCS).
	Workers int
}

// sweepPoint is the atomic bookkeeping of one selected point.
type sweepPoint struct {
	scen, point int
	util        float64
	drained     atomic.Int64   // samples done or skipped
	total       atomic.Int64   // samples whose test returned nil
	genFail     atomic.Int64   // samples whose generation failed
	accepted    []atomic.Int64 // indexed like Sweep.Methods
}

// Run drains every selected job. For each sample it draws the taskset and
// calls test(worker, ts, verdicts) with verdicts (one per method, cleared)
// to fill; worker in [0, Workers) lets test keep worker-local state
// without locking. When a point's last sample drains, onPoint(scenario,
// point, p, complete) fires exactly once, from a worker goroutine, with
// the point's tallies: Accepted holds the methods with a positive count,
// Total the samples test accepted, GenFailures the samples whose
// generation failed. A point is complete only when every sample ran — its
// generation failed or test returned nil — so Total+GenFailures ==
// Samples; a test error leaves only its own point incomplete. A canceled
// ctx stops new generation and test calls; the remaining jobs drain
// without work and their points report complete=false. onPoint may be nil.
//
// Run returns the error of the first failing job in job order — a failed
// generation or a non-nil test result — or, when none failed, ctx.Err().
func (sw Sweep) Run(ctx context.Context,
	test func(worker int, ts *model.Taskset, verdicts []bool) error,
	onPoint func(scenario, point int, p Point, complete bool)) error {

	samples := sw.Samples
	if samples <= 0 {
		samples = 25
	}
	var pts []sweepPoint
	names := make([]string, len(sw.Scenarios))
	gens := make([]*taskgen.Generator, len(sw.Scenarios))
	for si, s := range sw.Scenarios {
		names[si] = s.Name()
		gens[si] = taskgen.NewGenerator(s)
		for pi, u := range taskgen.UtilizationPoints(s.M) {
			if sw.Points == nil || slices.Contains(sw.Points[si], pi) {
				pts = append(pts, sweepPoint{scen: si, point: pi, util: u,
					accepted: make([]atomic.Int64, len(sw.Methods))})
			}
		}
	}

	var mu sync.Mutex // guards firstIdx and firstErr
	firstIdx, firstErr := -1, error(nil)

	// The generators are read-only, so every worker shares its scenario's;
	// each worker recycles its own verdict slice job after job.
	workers := Workers(sw.Workers)
	verdicts := make([][]bool, workers)
	for w := range verdicts {
		verdicts[w] = make([]bool, len(sw.Methods))
	}

	ParallelFor(workers, len(pts)*samples, func(w, idx int) {
		p, k := &pts[idx/samples], idx%samples
		var err error
		if ctx.Err() == nil { // a canceled ctx drains the remaining jobs without work
			err = sw.sample(w, p, k, names[p.scen], gens[p.scen], verdicts[w], test)
		}
		if err != nil {
			mu.Lock()
			if firstIdx < 0 || idx < firstIdx {
				firstIdx = idx
				firstErr = fmt.Errorf("scenario %s: point %d sample %d: %w", names[p.scen], p.point, k, err)
			}
			mu.Unlock()
		}
		if p.drained.Add(1) == int64(samples) && onPoint != nil {
			pt := p.result(sw.Methods, sw.Scenarios[p.scen].M)
			onPoint(p.scen, p.point, pt, pt.Total+pt.GenFailures == samples)
		}
	})
	if firstErr == nil {
		return ctx.Err()
	}
	return firstErr
}

// sample draws sample k of point p, runs test on it and folds the verdicts
// into p's tallies.
func (sw *Sweep) sample(w int, p *sweepPoint, k int, name string, g *taskgen.Generator,
	verdicts []bool, test func(int, *model.Taskset, []bool) error) error {

	ts, err := GenerateSample(g, SampleSeed(sw.Seed, name, p.point, k), p.util)
	if err != nil {
		p.genFail.Add(1)
		return err
	}
	clear(verdicts)
	if err := test(w, ts, verdicts); err != nil {
		return err
	}
	for mi, ok := range verdicts {
		if ok {
			p.accepted[mi].Add(1)
		}
	}
	p.total.Add(1)
	return nil
}

// result snapshots the point's tallies in curve form.
func (p *sweepPoint) result(ms []analysis.Method, m int) Point {
	pt := Point{
		Utilization: p.util,
		Normalized:  p.util / float64(m),
		Accepted:    make(map[analysis.Method]int, len(ms)),
		Total:       int(p.total.Load()),
		GenFailures: int(p.genFail.Load()),
	}
	for mi, m := range ms {
		if n := p.accepted[mi].Load(); n > 0 {
			pt.Accepted[m] = int(n)
		}
	}
	return pt
}
