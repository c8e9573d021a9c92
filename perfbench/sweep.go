package main

import (
	"bytes"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"dpcpp/internal/analysis"
	"dpcpp/internal/experiments"
	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/taskgen"
)

// goldenPath is schedtest's Fig. 2(a) golden (n=2, seed 2020), relative to
// the checkout root the benchmark runs from.
const goldenPath = "cmd/schedtest/testdata/fig2a_n2.golden"

// methodKey maps each method to the suffix of its per-call layer metric.
var methodKey = map[analysis.Method]string{
	analysis.DPCPpEP: "ep",
	analysis.DPCPpEN: "en",
	analysis.SPIN:    "spin",
	analysis.LPP:     "lpp",
	analysis.FEDFP:   "fedfp",
}

// sweepScenarios returns the Fig. 2(a) (m=16) and Fig. 2(b) (m=32, pr=1)
// scenarios.
func sweepScenarios() []taskgen.Scenario {
	var out []taskgen.Scenario
	for _, sub := range []string{"2a", "2b"} {
		s, err := taskgen.Fig2Scenario(sub)
		if err != nil {
			panic(err) // both names are fixed and known to taskgen
		}
		out = append(out, s)
	}
	return out
}

// campaign is the RunGrid template of campaign c of a run: Campaign.Seed is
// seed+c, so campaign 0 is exactly `schedtest -seed <seed>`.
func campaign(seed int64, c, n int) experiments.Campaign {
	return experiments.Campaign{TasksetsPerPoint: n, Seed: seed + int64(c), Parallelism: workers}
}

// sweepJob is one (scenario, point, sample) work unit of a campaign, in
// runPool's flat order.
type sweepJob struct {
	scen, point, sample int
}

// sweepJobs lists a campaign's jobs in runPool order.
func sweepJobs(scens []taskgen.Scenario, n int) []sweepJob {
	var out []sweepJob
	for si, s := range scens {
		for p := range taskgen.UtilizationPoints(s.M) {
			for k := 0; k < n; k++ {
				out = append(out, sweepJob{si, p, k})
			}
		}
	}
	return out
}

// accepted is one campaign's acceptance counts, indexed
// [scenario][point][method index], with the per-point totals last.
type accepted [][][]int

func newAccepted(scens []taskgen.Scenario) accepted {
	a := make(accepted, len(scens))
	for i, s := range scens {
		a[i] = make([][]int, len(taskgen.UtilizationPoints(s.M)))
		for p := range a[i] {
			a[i][p] = make([]int, len(analysis.Methods())+1)
		}
	}
	return a
}

func curvesAccepted(scens []taskgen.Scenario, curves []*experiments.Curve) accepted {
	a := newAccepted(scens)
	for i, c := range curves {
		for p, pt := range c.Points {
			for mi, m := range analysis.Methods() {
				a[i][p][mi] = pt.Accepted[m]
			}
			a[i][p][len(analysis.Methods())] = pt.Total
		}
	}
	return a
}

func (a accepted) equal(b accepted) bool {
	return fmt.Sprint(a) == fmt.Sprint(b)
}

func (a accepted) samples() int {
	n := 0
	for _, s := range a {
		for _, p := range s {
			n += p[len(p)-1]
		}
	}
	return n
}

// sweepSetup is the fig2-sweep set-up: resolve the scenarios, read the
// golden, and warm the pool with a one-sample-per-point Fig. 2(a) campaign.
func sweepSetup(seed int64) ([]taskgen.Scenario, []byte, error) {
	scens := sweepScenarios()
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, nil, fmt.Errorf("reading golden: %w", err)
	}
	if _, err := experiments.RunGrid(campaign(seed, 0, 1), scens[:1]); err != nil {
		return nil, nil, fmt.Errorf("warm-up campaign: %w", err)
	}
	return scens, golden, nil
}

// checkGolden re-runs `schedtest -fig 2a -n 2 -seed 2020` in-process and
// compares its stdout with the golden bytes.
func checkGolden(golden []byte) error {
	scen, err := taskgen.Fig2Scenario("2a")
	if err != nil {
		return err
	}
	curves, err := experiments.RunGrid(experiments.Campaign{
		TasksetsPerPoint: 2, Seed: 2020, Parallelism: workers,
	}, []taskgen.Scenario{scen})
	if err != nil {
		return err
	}
	got := "Fig. 2(a): acceptance ratio vs normalized utilization\n" + experiments.FormatCurve(curves[0])
	if !bytes.Equal([]byte(got), golden) {
		return fmt.Errorf("Fig. 2(a) n=2 seed 2020 differs from %s", goldenPath)
	}
	return nil
}

// replayer runs a campaign's jobs through experiments.ParallelFor exactly as
// runPool does (same seeds, generators per worker, recycled scratch), but
// timing each job, optionally tracing every layer call, and stopping
// hand-out at a deadline.
type replayer struct {
	scens []taskgen.Scenario
	gens  [workers]map[int]*taskgen.Generator
	sc    [workers]*analysis.Scratch
	recs  [workers]*stageSpans
}

func newReplayer(scens []taskgen.Scenario) *replayer {
	r := &replayer{scens: scens}
	for w := range r.gens {
		r.gens[w] = make(map[int]*taskgen.Generator)
		r.sc[w] = analysis.NewScratch()
		r.recs[w] = &stageSpans{}
	}
	return r
}

// replayResult is what one replay pass measured.
type replayResult struct {
	jobTimes []time.Duration // per completed job
	wall     time.Duration
	counts   accepted
	complete bool // every job ran before the deadline
	rounds   int  // partition rounds over all methods and jobs
	genErrs  int
}

// run replays campaign c (n samples per point). With tr non-nil every job,
// sample generation, analysis call and pipeline stage is a span; reqBase
// offsets the jobs' request IDs.
func (r *replayer) run(seed int64, c, n int, deadline time.Time, tr *tracer, reqBase int64) replayResult {
	jobs := sweepJobs(r.scens, n)
	camp := campaign(seed, c, n)
	times := make([]time.Duration, len(jobs))
	verdicts := make([][]bool, len(jobs))
	rounds := make([]int, len(jobs))
	var genErrs, skipped atomic.Int64
	// Only a traced pass installs the recorders: with one installed the
	// analysis reads the clock around every stage.
	for w := range r.recs {
		r.recs[w].tr = tr
		if tr == nil {
			r.sc[w].SetStageRecorder(nil)
		} else {
			r.sc[w].SetStageRecorder(r.recs[w])
		}
	}
	start := time.Now()
	experiments.ParallelFor(workers, len(jobs), func(w, i int) {
		if time.Now().After(deadline) {
			skipped.Add(1)
			times[i] = -1
			return
		}
		jb := jobs[i]
		s := r.scens[jb.scen]
		g := r.gens[w][jb.scen]
		if g == nil {
			g = taskgen.NewGenerator(s)
			r.gens[w][jb.scen] = g
		}
		req := reqBase + int64(i) + 1
		jobID := tr.newID()
		t0 := time.Now()
		util := taskgen.UtilizationPoints(s.M)[jb.point]
		seed := experiments.SampleSeed(camp.Seed, s.Name(), jb.point, jb.sample)
		ts, err := experiments.GenerateSample(g, seed, util)
		tr.add(jobID, req, "taskgen.sample", tr.at(t0), tr.now())
		if err != nil {
			genErrs.Add(1)
			times[i] = -1
			return
		}
		vs := make([]bool, len(analysis.Methods()))
		for mi, m := range analysis.Methods() {
			res := r.analyze(w, m, ts, jobID, req)
			vs[mi] = res.Schedulable
			rounds[i] += res.Rounds
		}
		verdicts[i] = vs
		times[i] = time.Since(t0)
		tr.record(jobID, 0, req, "experiments.job", tr.at(t0), tr.now())
	})
	res := replayResult{wall: time.Since(start), counts: newAccepted(r.scens),
		complete: skipped.Load() == 0, genErrs: int(genErrs.Load())}
	for i, jb := range jobs {
		if times[i] < 0 {
			continue
		}
		res.jobTimes = append(res.jobTimes, times[i])
		res.rounds += rounds[i]
		pt := res.counts[jb.scen][jb.point]
		for mi, ok := range verdicts[i] {
			if ok {
				pt[mi]++
			}
		}
		pt[len(pt)-1]++
	}
	return res
}

// analyze runs one method on worker w's scratch, as one span whose stage
// spans nest under it.
func (r *replayer) analyze(w int, m analysis.Method, ts *model.Taskset, parent, req int64) partition.Result {
	rec := r.recs[w]
	id := rec.tr.newID()
	rec.begin(id, req)
	t0 := rec.tr.now()
	res := analysis.TestWith(r.sc[w], m, ts, analysis.Options{})
	rec.end()
	rec.tr.record(id, parent, req, "analysis."+methodKey[m], t0, rec.tr.now())
	return res
}

// stageSpans is a worker's analysis.StageRecorder: it turns each stage
// duration into a span. Stages report at their end, so views and fixpoint
// spans wait in pending until the round that contains them ends.
type stageSpans struct {
	tr       *tracer
	req, cur int64 // request and analysis span of the call in progress
	pending  []span
}

func (s *stageSpans) begin(id, req int64) { s.cur, s.req, s.pending = id, req, s.pending[:0] }

// end attaches stages no round contained to the analysis span itself.
func (s *stageSpans) end() {
	for _, p := range s.pending {
		s.tr.record(p.ID, s.cur, s.req, p.Name, p.Start, p.End)
	}
	s.pending = s.pending[:0]
}

var stageName = [analysis.NumStages]string{
	analysis.StageViews:    "model.views",
	analysis.StageFixPoint: "rta.fixpoint",
	analysis.StageRound:    "partition.round",
}

func (s *stageSpans) RecordStage(st analysis.Stage, d time.Duration) {
	if s.tr == nil {
		return
	}
	end := s.tr.now()
	sp := span{ID: s.tr.newID(), Name: stageName[st], Start: end - int64(d), End: end}
	if st != analysis.StageRound {
		s.pending = append(s.pending, sp)
		return
	}
	kept := s.pending[:0]
	for _, p := range s.pending {
		if p.Start >= sp.Start && p.End <= sp.End {
			s.tr.record(p.ID, sp.ID, s.req, p.Name, p.Start, p.End)
		} else {
			kept = append(kept, p)
		}
	}
	s.pending = kept
	s.tr.record(sp.ID, s.cur, s.req, sp.Name, sp.Start, sp.End)
}

// runSweep is the untraced fig2-sweep run.
func runSweep(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	var scens []taskgen.Scenario
	var golden []byte
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if scens, golden, err = sweepSetup(cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.set("setup_s", median(setups))

	start := time.Now()
	deadline := start.Add(cfg.seconds)
	phaseA := start.Add(cfg.seconds * 65 / 100)
	heap := startHeapSampler()

	// Phase A: whole campaigns through RunGrid, the path schedtest -fig
	// takes. A campaign starts only if it is expected to end in the phase.
	var samples int
	var gridWall time.Duration
	var first accepted
	campaigns := 0
	jobsPer := len(sweepJobs(scens, sweepN))
	for c := 0; ; c++ {
		t0 := time.Now()
		curves, err := experiments.RunGrid(campaign(cfg.seed, c, sweepN), scens)
		d := time.Since(t0)
		campaigns++
		if err != nil {
			out.problem("campaign %d: %v", c, err)
		}
		a := curvesAccepted(scens, curves)
		out.attempt(jobsPer, jobsPer-a.samples())
		samples += a.samples()
		gridWall += d
		if c == 0 {
			first = a
		}
		if time.Now().Add(gridWall / time.Duration(campaigns)).After(phaseA) {
			break
		}
	}

	out.set("heap_peak_mb", heap.Stop())

	// Phase B: the same jobs through ParallelFor, timing each one.
	rp := newReplayer(scens)
	var jobTimes []float64
	var replay0 *replayResult
	for c := 0; time.Now().Before(deadline); c++ {
		res := rp.run(cfg.seed, c, sweepN, deadline, nil, 0)
		out.attempt(len(res.jobTimes)+res.genErrs, res.genErrs)
		for _, t := range res.jobTimes {
			jobTimes = append(jobTimes, durMS(t))
		}
		if c == 0 {
			replay0 = &res
		}
	}

	rate := float64(samples) / gridWall.Seconds()
	out.set("sweep_tasksets_per_s", rate)
	out.set("latency_p50_ms", median(jobTimes))
	out.note("fig2-sweep: %d campaigns, %d samples in %.2fs of RunGrid; %d replayed jobs timed, p95 %.1fms p99 %.1fms (not gated)",
		campaigns, samples, gridWall.Seconds(), len(jobTimes), quantile(jobTimes, 0.95), quantile(jobTimes, 0.99))

	// Checks, outside every timing.
	again, err := experiments.RunGrid(campaign(cfg.seed, 0, sweepN), scens)
	out.check(err == nil && curvesAccepted(scens, again).equal(first),
		"campaign 0 acceptance counts differ between two RunGrid runs of seed %d", cfg.seed)
	if replay0 != nil && replay0.complete {
		out.check(replay0.counts.equal(first), "ParallelFor replay of campaign 0 differs from RunGrid")
	}
	gerr := checkGolden(golden)
	out.check(gerr == nil, "%v", gerr)
	out.finishSuccess()
	return out, nil
}

// tracedSweep measures the fig2-sweep layers within budget: a warm-scratch
// allocation pass, then pairs of untraced and traced replays of the same
// campaign. Probes (small budgets) replay one sample per point.
func tracedSweep(cfg runConfig, budget time.Duration, tr *tracer) (*outcome, error) {
	out := newOutcome()
	scens, _, err := sweepSetup(cfg.seed)
	if err != nil {
		return nil, err
	}
	n := sweepN
	if budget < 8*time.Second {
		n = 1
	}
	out.set("analysis.allocs_per_sample", sweepAllocs(cfg.seed, scens, n))

	rp := newReplayer(scens)
	start := time.Now()
	never := start.Add(time.Hour)
	var uWall, tWall, busy time.Duration
	var spans []span
	var jobs, rounds int
	for c := 0; ; c++ {
		pairStart := time.Now()
		u := rp.run(cfg.seed, c, n, never, nil, 0)
		mark := tr.mark()
		t := rp.run(cfg.seed, c, n, never, tr, tr.reqBlock(len(sweepJobs(scens, n))))
		out.attempt(len(t.jobTimes)+len(u.jobTimes), t.genErrs+u.genErrs)
		uWall += u.wall
		tWall += t.wall
		for _, d := range u.jobTimes {
			busy += d
		}
		jobs += len(t.jobTimes)
		spans = append(spans, tr.since(mark)...)
		if c == 0 {
			rounds = t.rounds
			curves, err := experiments.RunGrid(campaign(cfg.seed, 0, n), scens)
			out.check(err == nil && curvesAccepted(scens, curves).equal(t.counts),
				"traced replay of campaign 0 differs from RunGrid")
			out.check(t.counts.equal(u.counts), "traced and untraced replays differ")
		}
		if time.Since(start)+time.Since(pairStart) > budget {
			break
		}
	}

	st := selfTimes(spans)
	out.set("taskgen.sample_us", st["taskgen.sample"].meanSelfUS())
	for _, m := range analysis.Methods() {
		out.set("analysis."+methodKey[m]+"_us", st["analysis."+methodKey[m]].meanTotalUS())
	}
	perJob := func(name string) float64 {
		if st[name] == nil || jobs == 0 {
			return 0
		}
		return durUS(st[name].Self) / float64(jobs)
	}
	out.set("model.views_us", perJob("model.views"))
	out.set("rta.fixpoint_us", perJob("rta.fixpoint"))
	out.set("partition.round_self_us", perJob("partition.round"))
	out.set("partition.rounds", float64(rounds))
	out.set("experiments.busy_ratio", busy.Seconds()/(uWall.Seconds()*workers))
	out.set("obs.trace_overhead_pct", 100*(tWall.Seconds()/uWall.Seconds()-1))
	out.finishSuccess()
	return out, nil
}

// sweepAllocs measures heap allocations of the five analyses of one
// sample on a warm scratch, over every tenth job of campaign 0, on one
// goroutine so that the process-wide counter belongs to it alone.
func sweepAllocs(seed int64, scens []taskgen.Scenario, n int) float64 {
	var sets []*model.Taskset
	camp := campaign(seed, 0, n)
	for i, jb := range sweepJobs(scens, n) {
		if i%10 != 0 {
			continue
		}
		s := scens[jb.scen]
		ts, err := experiments.GenerateSample(taskgen.NewGenerator(s),
			experiments.SampleSeed(camp.Seed, s.Name(), jb.point, jb.sample),
			taskgen.UtilizationPoints(s.M)[jb.point])
		if err == nil {
			sets = append(sets, ts)
		}
	}
	sc := analysis.NewScratch()
	pass := func() {
		for _, ts := range sets {
			for _, m := range analysis.Methods() {
				analysis.TestWith(sc, m, ts, analysis.Options{})
			}
		}
	}
	pass() // warm the scratch arenas
	before := allocCount()
	pass()
	return float64(allocCount()-before) / float64(max(len(sets), 1))
}
