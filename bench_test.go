// Benchmarks regenerating every table and figure of the paper's evaluation
// (Sec. VII), plus ablations for the design choices DESIGN.md calls out.
//
// Each figure benchmark runs a reduced-sample acceptance-ratio sweep of its
// scenario and reports the two summary metrics that define the figure's
// shape: the area under the DPCP-p-EP curve versus the best baseline, via
// custom benchmark metrics. The table benchmark sweeps a deterministic
// subset of the 216-scenario grid. Full-accuracy runs use cmd/schedtest.
package dpcpp

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dpcpp/internal/analysis"
	"dpcpp/internal/experiments"
	"dpcpp/internal/model"
	"dpcpp/internal/obs"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
	"dpcpp/internal/sim"
	"dpcpp/internal/taskgen"
)

// benchCampaign keeps benchmark iterations affordable; cmd/schedtest runs
// the full-sample version.
func benchCampaign(scen taskgen.Scenario) experiments.Campaign {
	return experiments.Campaign{
		Scenario:         scen,
		TasksetsPerPoint: 4,
		Seed:             2020,
	}
}

func auc(c *experiments.Curve, m analysis.Method) float64 {
	total := 0.0
	for i := range c.Points {
		total += c.Ratio(m, i)
	}
	return total / float64(len(c.Points))
}

func benchmarkFig(b *testing.B, sub string) {
	scen, err := taskgen.Fig2Scenario(sub)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var curve *experiments.Curve
	for i := 0; i < b.N; i++ {
		curve, err = benchCampaign(scen).Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(auc(curve, analysis.DPCPpEP), "auc-dpcp-ep")
	b.ReportMetric(auc(curve, analysis.DPCPpEN), "auc-dpcp-en")
	b.ReportMetric(auc(curve, analysis.SPIN), "auc-spin")
	b.ReportMetric(auc(curve, analysis.LPP), "auc-lpp")
	b.ReportMetric(auc(curve, analysis.FEDFP), "auc-fedfp")
}

// BenchmarkFig2a regenerates Fig. 2(a): U^avg=1.5, m=16, nr in [4,8], pr=0.5.
func BenchmarkFig2a(b *testing.B) { benchmarkFig(b, "2a") }

// BenchmarkFig2b regenerates Fig. 2(b): U^avg=1.5, m=32, nr in [8,16], pr=1.
func BenchmarkFig2b(b *testing.B) { benchmarkFig(b, "2b") }

// BenchmarkFig2c regenerates Fig. 2(c): U^avg=2, m=16, nr in [4,8], pr=0.5.
func BenchmarkFig2c(b *testing.B) { benchmarkFig(b, "2c") }

// BenchmarkFig2d regenerates Fig. 2(d): U^avg=2, m=32, nr in [8,16], pr=1.
func BenchmarkFig2d(b *testing.B) { benchmarkFig(b, "2d") }

// BenchmarkTables2and3 sweeps a deterministic stratified subset of the
// 216-scenario grid (every 9th scenario) and reports how often DPCP-p-EP
// dominates/outperforms each baseline, the headline statistics of the
// paper's Tables 2 and 3.
func BenchmarkTables2and3(b *testing.B) {
	full := taskgen.Grid()
	var grid []taskgen.Scenario
	for i := 0; i < len(full); i += 9 {
		grid = append(grid, full[i])
	}
	b.ReportAllocs()
	var g *experiments.GridResult
	for i := 0; i < b.N; i++ {
		var curves []*experiments.Curve
		for _, s := range grid {
			c := benchCampaign(s)
			c.TasksetsPerPoint = 2
			curve, err := c.Run()
			if err != nil {
				b.Fatal(err)
			}
			curves = append(curves, curve)
		}
		g = experiments.Aggregate(curves, analysis.Methods())
	}
	n := float64(g.Scenarios)
	b.ReportMetric(float64(g.Dominance[analysis.DPCPpEP][analysis.SPIN])/n, "dom-ep-over-spin")
	b.ReportMetric(float64(g.Dominance[analysis.DPCPpEP][analysis.LPP])/n, "dom-ep-over-lpp")
	b.ReportMetric(float64(g.Dominance[analysis.DPCPpEP][analysis.DPCPpEN])/n, "dom-ep-over-en")
	b.ReportMetric(float64(g.Outperformance[analysis.DPCPpEP][analysis.SPIN])/n, "out-ep-over-spin")
	b.ReportMetric(float64(g.Outperformance[analysis.DPCPpEP][analysis.LPP])/n, "out-ep-over-lpp")
}

// --- Ablations -----------------------------------------------------------

// BenchmarkPathCap measures the EP analysis cost and verdict quality as
// the path-enumeration cap shrinks (the Sec. VI trade-off between
// analysis precision and cost).
func BenchmarkPathCap(b *testing.B) {
	scen, _ := taskgen.Fig2Scenario("2a")
	// Taskset synthesis happens once, outside the timed region: the
	// benchmark measures the analysis, not the generator.
	g := taskgen.NewGenerator(scen)
	tasksets := make([]*Taskset, 0, 8)
	for s := int64(0); s < 8; s++ {
		ts, err := g.Taskset(rand.New(rand.NewSource(s)), 6.0)
		if err != nil {
			b.Fatal(err)
		}
		tasksets = append(tasksets, ts)
	}
	for _, cap := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("cap%d", cap), func(b *testing.B) {
			b.ReportAllocs()
			accepted := 0
			tested := 0
			for i := 0; i < b.N; i++ {
				for _, ts := range tasksets {
					tested++
					if analysis.Schedulable(analysis.DPCPpEP, ts, analysis.Options{PathCap: cap}) {
						accepted++
					}
				}
			}
			b.ReportMetric(float64(accepted)/float64(tested), "accept-ratio")
		})
	}
}

// BenchmarkPlacementHeuristic compares WFD (Algorithm 2) with the FFD
// ablation on the heavy-contention scenario.
func BenchmarkPlacementHeuristic(b *testing.B) {
	scen, _ := taskgen.Fig2Scenario("2b")
	// As in BenchmarkPathCap, synthesis stays outside the timed region.
	g := taskgen.NewGenerator(scen)
	tasksets := make([]*Taskset, 0, 8)
	for s := int64(0); s < 8; s++ {
		ts, err := g.Taskset(rand.New(rand.NewSource(s)), 4.0)
		if err != nil {
			b.Fatal(err)
		}
		tasksets = append(tasksets, ts)
	}
	for _, h := range []struct {
		name string
		ph   partition.PlacementHeuristic
	}{{"WFD", partition.WFD}, {"FFD", partition.FFD}} {
		b.Run(h.name, func(b *testing.B) {
			b.ReportAllocs()
			accepted, tested := 0, 0
			for i := 0; i < b.N; i++ {
				for _, ts := range tasksets {
					tested++
					if analysis.Schedulable(analysis.DPCPpEP, ts,
						analysis.Options{Placement: h.ph}) {
						accepted++
					}
				}
			}
			b.ReportMetric(float64(accepted)/float64(tested), "accept-ratio")
		})
	}
}

// BenchmarkAnalysisMethods measures the per-taskset cost of each
// schedulability test on a Fig. 2(a) workload, through the production
// scratch-recycling path (analysis.TestWith) exactly as the experiment
// worker pool and the server engine run it — steady-state, warm scratch.
func BenchmarkAnalysisMethods(b *testing.B) {
	scen, _ := taskgen.Fig2Scenario("2a")
	g := taskgen.NewGenerator(scen)
	ts, err := g.Taskset(rand.New(rand.NewSource(1)), 6.0)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range analysis.Methods() {
		b.Run(string(m), func(b *testing.B) {
			b.ReportAllocs()
			sc := analysis.NewScratch()
			analysis.TestWith(sc, m, ts, analysis.Options{}) // warm the arenas
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				analysis.TestWith(sc, m, ts, analysis.Options{})
			}
		})
	}
}

// BenchmarkAnalysisFig2b is BenchmarkAnalysisMethods for the two DPCP-p
// methods on a Fig. 2(b) taskset (m=32, 8-16 resources, pr=1): most
// processors host resources, so the Theorem 1 kernel's per-processor zeta
// sums and the Lemma 2 epsilons of the views it evaluates dominate, as
// they do in the Fig. 2 sweep; the views of a round that stops at a
// diverged view are never filled. Gated by cmd/benchgate.
func BenchmarkAnalysisFig2b(b *testing.B) {
	scen, _ := taskgen.Fig2Scenario("2b")
	g := taskgen.NewGenerator(scen)
	ts, err := g.Taskset(rand.New(rand.NewSource(1)), 8.0)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []analysis.Method{analysis.DPCPpEN, analysis.DPCPpEP} {
		b.Run(string(m), func(b *testing.B) {
			b.ReportAllocs()
			sc := analysis.NewScratch()
			analysis.TestWith(sc, m, ts, analysis.Options{}) // warm the arenas
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				analysis.TestWith(sc, m, ts, analysis.Options{})
			}
		})
	}
}

// benchStageRecorder mirrors the server engine's stage wiring: per-stage
// obs histograms fed through the allocation-free scratch hooks.
type benchStageRecorder struct {
	h [analysis.NumStages]*obs.Histogram
}

func newBenchStageRecorder() *benchStageRecorder {
	r := &benchStageRecorder{}
	for i := range r.h {
		r.h[i] = obs.NewHistogram(obs.DefaultLatencyBounds())
	}
	return r
}

func (r *benchStageRecorder) RecordStage(s analysis.Stage, d time.Duration) { r.h[s].Observe(d) }

// BenchmarkInstrumentedAnalysis is BenchmarkAnalysisMethods for the two
// DPCP-p methods with per-stage instrumentation enabled — the exact hot
// path a production schedd runs. Gated by cmd/benchgate: its ns/op and
// allocs/op versus the uninstrumented BenchmarkAnalysisMethods series pin
// the observability overhead (allocs must stay identical).
func BenchmarkInstrumentedAnalysis(b *testing.B) {
	scen, _ := taskgen.Fig2Scenario("2a")
	g := taskgen.NewGenerator(scen)
	ts, err := g.Taskset(rand.New(rand.NewSource(1)), 6.0)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []analysis.Method{analysis.DPCPpEN, analysis.DPCPpEP} {
		b.Run(string(m), func(b *testing.B) {
			b.ReportAllocs()
			sc := analysis.NewScratch()
			rec := newBenchStageRecorder()
			sc.SetStageRecorder(rec)
			analysis.TestWith(sc, m, ts, analysis.Options{}) // warm the arenas
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				analysis.TestWith(sc, m, ts, analysis.Options{})
			}
			b.StopTimer()
			if rec.h[analysis.StageRound].Count() == 0 {
				b.Fatal("stage recorder saw no samples; instrumentation is dead")
			}
		})
	}
}

// hashSink keeps the patch-only benchmarks' Hash calls live.
var hashSink model.Hash

// BenchmarkDeltaAnalyze measures the what-if query the server's POST
// /v1/analyze/delta answers: a one-vertex WCET bump (the canonical
// admission-control query) applied with model.ApplyPatch, then a full EP
// analysis of the patched taskset. The patch-only sub-benchmarks time
// ApplyPatch and the patched taskset's Hash alone, for a WCET edit and a
// period edit. Gated by cmd/benchgate.
func BenchmarkDeltaAnalyze(b *testing.B) {
	scen, _ := taskgen.Fig2Scenario("2a")
	g := taskgen.NewGenerator(scen)
	ts, err := g.Taskset(rand.New(rand.NewSource(1)), 6.0)
	if err != nil {
		b.Fatal(err)
	}
	// Bump the lowest-priority task: the common "can this component grow"
	// query.
	low := ts.Tasks[0]
	for _, tk := range ts.Tasks {
		if low.Priority.Higher(tk.Priority) {
			low = tk
		}
	}
	bump := func(i int) model.Patch {
		return model.Patch{Ops: []model.PatchOp{{
			Op: model.OpSetWCET, Task: low.ID, Vertex: 0,
			Value: low.Vertices[0].WCET + 1 + rt.Time(i%16)*rt.Microsecond,
		}}}
	}

	b.Run("cold-full-analysis", func(b *testing.B) {
		sc := analysis.NewScratch()
		analysis.TestWith(sc, analysis.DPCPpEP, ts, analysis.Options{}) // warm the arenas
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			patched, _, err := model.ApplyPatch(ts, bump(i))
			if err != nil {
				b.Fatal(err)
			}
			analysis.TestWith(sc, analysis.DPCPpEP, patched, analysis.Options{})
		}
	})

	patchOnly := func(b *testing.B, patch func(i int) model.Patch) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			patched, _, err := model.ApplyPatch(ts, patch(i))
			if err != nil {
				b.Fatal(err)
			}
			hashSink = patched.Hash()
		}
	}
	b.Run("patch-only/set_wcet", func(b *testing.B) { patchOnly(b, bump) })
	b.Run("patch-only/set_period", func(b *testing.B) {
		patchOnly(b, func(i int) model.Patch {
			return model.Patch{Ops: []model.PatchOp{{
				Op: model.OpSetPeriod, Task: low.ID,
				Value: low.Period + 1 + rt.Time(i%16)*rt.Microsecond,
			}}}
		})
	})
}

// BenchmarkSimulator measures discrete-event simulation throughput on the
// autonomous-pipeline-sized workload and reports events (jobs+requests)
// per run.
func BenchmarkSimulator(b *testing.B) {
	scen := taskgen.Scenario{
		M:          8,
		NumRes:     taskgen.IntRange{Lo: 2, Hi: 4},
		UAvg:       1.5,
		PAccess:    0.75,
		NReq:       taskgen.IntRange{Lo: 1, Hi: 10},
		CSLen:      taskgen.TimeRange{Lo: 15 * rt.Microsecond, Hi: 50 * rt.Microsecond},
		VertsRange: taskgen.IntRange{Lo: 8, Hi: 16},
		EdgeProb:   0.15,
		PeriodLo:   2 * rt.Millisecond,
		PeriodHi:   10 * rt.Millisecond,
	}
	g := taskgen.NewGenerator(scen)
	var ts = mustSchedulable(b, g)
	res := analysis.Test(analysis.DPCPpEP, ts, analysis.Options{})
	var horizon rt.Time
	for _, t := range ts.Tasks {
		if t.Period > horizon {
			horizon = t.Period
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var m sim.Metrics
	for i := 0; i < b.N; i++ {
		s, err := sim.New(ts, res.Partition, sim.Config{Horizon: 4 * horizon})
		if err != nil {
			b.Fatal(err)
		}
		m, err = s.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Jobs), "jobs/run")
	b.ReportMetric(float64(m.Requests), "requests/run")
}

func mustSchedulable(b *testing.B, g *taskgen.Generator) *TasksetAlias {
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		ts, err := g.Taskset(r, 3.0)
		if err != nil {
			continue
		}
		if analysis.Schedulable(analysis.DPCPpEP, ts, analysis.Options{}) {
			return ts
		}
	}
	b.Fatal("no schedulable taskset found for the simulator benchmark")
	return nil
}

// TasksetAlias keeps the benchmark helper signatures readable.
type TasksetAlias = Taskset

// BenchmarkTaskGeneration measures the synthesis pipeline itself.
func BenchmarkTaskGeneration(b *testing.B) {
	scen, _ := taskgen.Fig2Scenario("2d") // hardest constraints
	g := taskgen.NewGenerator(scen)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		if _, err := g.Taskset(r, 16.0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathEnumeration measures the EP path machinery on a DAG with an
// exponential path count (2^14 complete paths), exercising the cap check.
// enumerate-16k measures what the analysis actually consumes — the
// signature-collapsed views of EnumerateViews, which fold all 16k paths of
// this DAG into a single view — while enumerate-16k-legacy retains the
// concrete per-path enumeration kept for tests and diagnostics.
func BenchmarkPathEnumeration(b *testing.B) {
	ts := NewTaskset(4, 1)
	task := NewTask(0, 10*rt.Millisecond, 10*rt.Millisecond)
	prev := task.AddVertex(10 * rt.Microsecond)
	for i := 0; i < 14; i++ {
		x := task.AddVertex(20 * rt.Microsecond)
		y := task.AddVertex(30 * rt.Microsecond)
		j := task.AddVertex(10 * rt.Microsecond)
		task.AddEdge(prev, x)
		task.AddEdge(prev, y)
		task.AddEdge(x, j)
		task.AddEdge(y, j)
		prev = j
	}
	task.AddRequest(0, 0, 1, 5*rt.Microsecond)
	ts.Add(task)
	if err := ts.Finalize(); err != nil {
		b.Fatal(err)
	}
	b.Run("count", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			task.CountPaths()
		}
	})
	b.Run("bounds-dp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			task.ComputePathBounds()
		}
	})
	b.Run("enumerate-16k", func(b *testing.B) {
		b.ReportAllocs()
		var views []PathView
		for i := 0; i < b.N; i++ {
			var ok bool
			if views, ok = task.EnumerateViews(1<<14, nil); !ok {
				b.Fatal("cap exceeded unexpectedly")
			}
		}
		b.ReportMetric(float64(len(views)), "views")
	})
	b.Run("enumerate-16k-scratch", func(b *testing.B) {
		b.ReportAllocs()
		var vs ViewScratch
		var views []PathView
		for i := 0; i < b.N; i++ {
			var ok bool
			if views, ok = task.EnumerateViews(1<<14, &vs); !ok {
				b.Fatal("cap exceeded unexpectedly")
			}
		}
		b.ReportMetric(float64(len(views)), "views")
	})
	b.Run("enumerate-16k-legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := task.EnumeratePaths(1 << 14); !ok {
				b.Fatal("cap exceeded unexpectedly")
			}
		}
	})
}

// BenchmarkGridSweep measures the grid-level experiment scheduler: many
// scenarios drained by one shared worker pool (versus the historical
// scenario-at-a-time sweep whose per-scenario pools idle through each
// scenario's tail).
func BenchmarkGridSweep(b *testing.B) {
	full := taskgen.Grid()
	var grid []taskgen.Scenario
	for i := 0; i < len(full); i += 27 {
		grid = append(grid, full[i])
	}
	tmpl := experiments.Campaign{TasksetsPerPoint: 2, Seed: 2020}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunGrid(tmpl, grid); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(grid)), "scenarios")
}
