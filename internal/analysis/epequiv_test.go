package analysis

import (
	"math/rand"
	"reflect"
	"testing"

	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
	"dpcpp/internal/rta"
	"dpcpp/internal/taskgen"
)

// naiveEP is the pre-collapse reference implementation of DPCP-p-EP: one
// pathView per concrete enumerated path, exactly as the engine worked
// before signature collapsing. It evaluates each view with directRef's
// memo-free evaluator, which TestMatchesMemoFreeReference pins to the
// production kernel, so a divergence between naiveEP and the collapsed
// engine points at the collapse layer.
type naiveEP struct {
	a *DPCPp
}

func (n *naiveEP) WCRTs(p *partition.Partition, _ bool) map[rt.TaskID]rt.Time {
	wcrts := make(map[rt.TaskID]rt.Time, len(n.a.ts.Tasks))
	for _, t := range n.a.ts.ByPriorityDesc() {
		ctx := n.a.buildCtx(p, t, wcrts)
		views := n.viewsFor(ctx)
		ref := directRef{n.a}
		var worst rt.Time
		for i := range views {
			r := ref.viewWCRT(ctx, &views[i])
			if r > worst {
				worst = r
			}
			if worst >= rt.Infinity {
				break
			}
		}
		wcrts[t.ID] = worst
	}
	return wcrts
}

func (n *naiveEP) viewsFor(ctx *taskCtx) []pathView {
	t := ctx.task
	nr := n.a.ts.NumResources
	if ctx.shared {
		v := pathView{length: t.WCET(), onPath: make([]int64, nr), offPath: make([]int64, nr)}
		for q := 0; q < nr; q++ {
			v.onPath[q] = t.NumRequests(rt.ResourceID(q))
		}
		return []pathView{v}
	}
	paths, ok := t.EnumeratePaths(n.a.pathCap)
	if !ok {
		return n.a.enView(t)
	}
	totalNonCrit := t.NonCritWCET()
	views := make([]pathView, len(paths))
	for i, p := range paths {
		v := pathView{
			length:     p.Length,
			offNonCrit: totalNonCrit - p.NonCrit,
			onPath:     make([]int64, nr),
			offPath:    make([]int64, nr),
		}
		for q := 0; q < nr; q++ {
			c := p.Requests(rt.ResourceID(q))
			v.onPath[q] = c
			v.offPath[q] = t.NumRequests(rt.ResourceID(q)) - c
		}
		views[i] = v
	}
	return views
}

// equivalenceCorpus draws tasksets across contention levels from two
// configurations: a moderate m=16 one, and the Fig. 2(b) scenario (m=32,
// 8-16 resources, every task accessing every resource), where most
// processors host resources and the epsilon and zeta sums run over many
// processors. Generation failures for a (seed, util) pair are skipped,
// matching sweep behavior. The m=16 tasksets come first.
func equivalenceCorpus(t *testing.T) []*model.Taskset {
	t.Helper()
	moderate := taskgen.Scenario{
		M: 16, NumRes: taskgen.IntRange{Lo: 4, Hi: 8}, UAvg: 1.5, PAccess: 0.5,
		NReq:  taskgen.IntRange{Lo: 1, Hi: 25},
		CSLen: taskgen.TimeRange{Lo: 15 * rt.Microsecond, Hi: 50 * rt.Microsecond},
	}.DefaultStructure()
	fig2b, err := taskgen.Fig2Scenario("2b")
	if err != nil {
		t.Fatal(err)
	}
	corpus := drawCorpus(moderate, 10, []float64{4.0, 8.0})
	if len(corpus) < 10 {
		t.Fatalf("m=16 corpus too small: %d tasksets", len(corpus))
	}
	heavy := drawCorpus(fig2b, 5, []float64{4.0, 8.0, 12.0})
	if len(heavy) < 10 {
		t.Fatalf("Fig. 2(b) corpus too small: %d tasksets", len(heavy))
	}
	return append(corpus, heavy...)
}

func drawCorpus(scen taskgen.Scenario, seeds int64, utils []float64) []*model.Taskset {
	g := taskgen.NewGenerator(scen)
	var corpus []*model.Taskset
	for seed := int64(0); seed < seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		for _, util := range utils {
			ts, err := g.Taskset(r, util)
			if err != nil {
				continue
			}
			corpus = append(corpus, ts)
		}
	}
	return corpus
}

// TestCollapsedEPMatchesNaiveReference is the regression gate for the
// signature-collapsed engine: over a generated corpus, the full pipeline
// (partitioning + analysis) must return bit-identical verdicts, WCRTs and
// partition rounds to the per-path reference, and so must the raw WCRTs on
// the final partition.
func TestCollapsedEPMatchesNaiveReference(t *testing.T) {
	for ci, ts := range equivalenceCorpus(t) {
		fast := partition.Algorithm1(ts, NewDPCPp(ts, DefaultPathCap, false), partition.WFD)
		slow := partition.Algorithm1(ts, &naiveEP{NewDPCPp(ts, DefaultPathCap, false)}, partition.WFD)

		if fast.Schedulable != slow.Schedulable {
			t.Errorf("corpus %d: verdict %v != reference %v", ci, fast.Schedulable, slow.Schedulable)
			continue
		}
		if fast.Rounds != slow.Rounds {
			t.Errorf("corpus %d: rounds %d != reference %d", ci, fast.Rounds, slow.Rounds)
		}
		if !reflect.DeepEqual(fast.WCRT, slow.WCRT) {
			t.Errorf("corpus %d: WCRT maps diverge:\n fast: %v\n ref:  %v", ci, fast.WCRT, slow.WCRT)
		}
		if fast.Partition == nil || slow.Partition == nil {
			continue
		}
		// Direct per-task comparison on one fixed partition.
		w1 := NewDPCPp(ts, DefaultPathCap, false).WCRTs(fast.Partition, false)
		w2 := (&naiveEP{NewDPCPp(ts, DefaultPathCap, false)}).WCRTs(fast.Partition, false)
		if !reflect.DeepEqual(w1, w2) {
			t.Errorf("corpus %d: per-partition WCRTs diverge:\n fast: %v\n ref:  %v", ci, w1, w2)
		}
	}
}

// directRef is the memo-free reference: it evaluates Theorem 1 view by
// view over the analyzer's own path views (so it covers EN as well as EP),
// computing every Lemma 2 epsilon with a direct rta.FixPoint per
// (processor, base) — no memo table — and every eta from its term's own
// (T, R) via etaSum, not from per-task eta counts. Production shares only
// buildCtx, the views and intraBlocking with it, so agreement pins the
// epsilon table, the eta-count hoisting and the view admission of
// rta.MaxFixPoint.
type directRef struct {
	a *DPCPp
}

func (d *directRef) WCRTs(p *partition.Partition, _ bool) map[rt.TaskID]rt.Time {
	wcrts := make(map[rt.TaskID]rt.Time, len(d.a.ts.Tasks))
	for _, t := range d.a.ts.ByPriorityDesc() {
		ctx := d.a.buildCtx(p, t, wcrts)
		var worst rt.Time
		for _, v := range d.a.viewsFor(ctx) {
			worst = max(worst, d.viewWCRT(ctx, &v))
			if worst >= rt.Infinity {
				break
			}
		}
		wcrts[t.ID] = worst
	}
	return wcrts
}

// viewWCRT is the least fixed point of Theorem 1 for one view.
func (d *directRef) viewWCRT(ctx *taskCtx, v *pathView) rt.Time {
	b := d.a.intraBlocking(ctx, v)
	iIntra := v.offNonCrit
	for j, q := range ctx.localRes {
		iIntra = rt.SatAdd(iIntra, rt.SatMul(v.offPath[q], ctx.localCS[j]))
	}
	var iaStatic rt.Time
	for j, q := range ctx.clusterRes {
		iaStatic = rt.SatAdd(iaStatic, rt.SatMul(v.offPath[q], ctx.clusterCS[j]))
	}
	eps := make([]rt.Time, len(ctx.procs))
	for i := range ctx.procs {
		eps[i] = directEpsilon(ctx, &ctx.procs[i], v)
	}
	x0 := rt.SatAdd(v.length, rt.SatAdd(b, rt.CeilDiv(iIntra, ctx.mi)))
	r, ok := rta.FixPoint(x0, ctx.task.Deadline, func(r rt.Time) rt.Time {
		var blocking rt.Time
		for i := range ctx.procs {
			blocking = rt.SatAdd(blocking, min(eps[i], etaSum(ctx.procs[i].other, r)))
		}
		ia := rt.SatAdd(etaSum(ctx.cluster, r), iaStatic)
		sum := rt.SatAdd(rt.SatAdd(v.length, blocking), b)
		sum = rt.SatAdd(sum, rt.CeilDiv(rt.SatAdd(iIntra, ia), ctx.mi))
		return rt.SatAdd(sum, etaSum(ctx.hpShared, r))
	})
	if !ok {
		return rt.Infinity
	}
	return r
}

// directEpsilon is Eq. (4) with each request's Lemma 2 W recurrence solved
// from scratch.
func directEpsilon(ctx *taskCtx, pc *procCtx, v *pathView) rt.Time {
	var offCoWork rt.Time
	for j, u := range pc.res {
		offCoWork = rt.SatAdd(offCoWork, rt.SatMul(v.offPath[u], pc.resCS[j]))
	}
	var eps rt.Time
	for j, q := range pc.res {
		n := v.onPath[q]
		if n == 0 {
			continue
		}
		base := rt.SatAdd(pc.resCS[j], rt.SatAdd(offCoWork, pc.beta))
		w, ok := rta.FixPoint(base, ctx.task.Deadline, func(w rt.Time) rt.Time {
			return rt.SatAdd(base, etaSum(pc.hp, w))
		})
		if !ok {
			return rt.Infinity
		}
		perReq := rt.SatAdd(pc.beta, etaSum(pc.hp, w))
		if perReq >= rt.Infinity {
			return rt.Infinity
		}
		eps = rt.SatAdd(eps, rt.SatMul(n, perReq))
	}
	return eps
}

// TestMatchesMemoFreeReference pins the production kernel (epsilon table,
// per-task eta counts, view admission) against directRef for EP and
// EN over both corpus configurations and the light-task set: the full
// pipeline must agree on verdicts, rounds and WCRTs, and so must the raw
// WCRTs on the final partition.
func TestMatchesMemoFreeReference(t *testing.T) {
	corpus := equivalenceCorpus(t)
	for _, en := range []bool{false, true} {
		for ci, ts := range corpus {
			fast := partition.Algorithm1(ts, NewDPCPp(ts, DefaultPathCap, en), partition.WFD)
			slow := partition.Algorithm1(ts, &directRef{NewDPCPp(ts, DefaultPathCap, en)}, partition.WFD)
			if fast.Schedulable != slow.Schedulable || fast.Rounds != slow.Rounds ||
				!reflect.DeepEqual(fast.WCRT, slow.WCRT) {
				t.Errorf("en=%v corpus %d: production (%v, %d rounds, %v) != reference (%v, %d rounds, %v)",
					en, ci, fast.Schedulable, fast.Rounds, fast.WCRT, slow.Schedulable, slow.Rounds, slow.WCRT)
				continue
			}
			if fast.Partition == nil {
				continue
			}
			w1 := NewDPCPp(ts, DefaultPathCap, en).WCRTs(fast.Partition, false)
			w2 := (&directRef{NewDPCPp(ts, DefaultPathCap, en)}).WCRTs(fast.Partition, false)
			if !reflect.DeepEqual(w1, w2) {
				t.Errorf("en=%v corpus %d: per-partition WCRTs diverge:\n prod: %v\n ref:  %v", en, ci, w1, w2)
			}
		}
		// Light tasks sharing processors add the Sec. VI hpShared term.
		ts := lightSet(t)
		fast := partition.AlgorithmMixed(ts, NewDPCPp(ts, DefaultPathCap, en), partition.WFD)
		slow := partition.AlgorithmMixed(ts, &directRef{NewDPCPp(ts, DefaultPathCap, en)}, partition.WFD)
		if fast.Schedulable != slow.Schedulable || !reflect.DeepEqual(fast.WCRT, slow.WCRT) {
			t.Errorf("en=%v light set: production %v %v != reference %v %v",
				en, fast.Schedulable, fast.WCRT, slow.Schedulable, slow.WCRT)
		}
	}
}

// FuzzWCRTMatchesReference draws an adversarial taskset from the seed and
// requires TestWith to give the same verdict, WCRTs and rounds as the
// same pipeline over directRef, for DPCP-p-EP at path caps 1, 2 and 8
// (where EN fallbacks are common) and for DPCP-p-EN. One Scratch serves
// every production run, so arena reuse across analyses is covered too.
func FuzzWCRTMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	gen := taskgen.NewAdversarial()
	sc := NewScratch()
	f.Fuzz(func(t *testing.T, seed int64) {
		ts, shape, err := gen.Taskset(rand.New(rand.NewSource(seed)))
		if err != nil {
			return
		}
		for _, c := range []struct {
			m  Method
			pc int
		}{{DPCPpEP, 1}, {DPCPpEP, 2}, {DPCPpEP, 8}, {DPCPpEN, DefaultPathCap}} {
			opts := Options{PathCap: c.pc}
			got := TestWith(sc, c.m, ts, opts)
			ref := partitionFor(c.m, ts, &directRef{NewDPCPp(ts, c.pc, c.m == DPCPpEN)}, opts.Placement)
			if got.Schedulable != ref.Schedulable || got.Rounds != ref.Rounds ||
				!reflect.DeepEqual(got.WCRT, ref.WCRT) {
				t.Fatalf("seed %d (%s) %s cap %d: production (%v, %d rounds, %v) != reference (%v, %d rounds, %v)",
					seed, shape, c.m, c.pc, got.Schedulable, got.Rounds, got.WCRT,
					ref.Schedulable, ref.Rounds, ref.WCRT)
			}
		}
	})
}

// TestCollapsedEPMatchesNaiveOnLightSets covers the Sec. VI shared-task
// special view and the mixed partitioning path.
func TestCollapsedEPMatchesNaiveOnLightSets(t *testing.T) {
	ts := lightSet(t)
	fast := partition.AlgorithmMixed(ts, NewDPCPp(ts, DefaultPathCap, false), partition.WFD)
	slow := partition.AlgorithmMixed(ts, &naiveEP{NewDPCPp(ts, DefaultPathCap, false)}, partition.WFD)
	if fast.Schedulable != slow.Schedulable || !reflect.DeepEqual(fast.WCRT, slow.WCRT) {
		t.Errorf("light sets diverge: fast=%v %v ref=%v %v",
			fast.Schedulable, fast.WCRT, slow.Schedulable, slow.WCRT)
	}
}

// TestCollapsedEPMatchesNaiveUnderTightCaps exercises the EN fallback
// boundary: caps below, at, and above the path count of a diamond DAG.
func TestCollapsedEPMatchesNaiveUnderTightCaps(t *testing.T) {
	ts := model.NewTaskset(4, 1)
	task := model.NewTask(0, 10*rt.Millisecond, 10*rt.Millisecond)
	prev := task.AddVertex(10 * rt.Microsecond)
	for i := 0; i < 5; i++ {
		a := task.AddVertex(20 * rt.Microsecond)
		b := task.AddVertex(30 * rt.Microsecond)
		join := task.AddVertex(10 * rt.Microsecond)
		task.AddEdge(prev, a)
		task.AddEdge(prev, b)
		task.AddEdge(a, join)
		task.AddEdge(b, join)
		prev = join
	}
	task.AddRequest(0, 0, 2, 5*rt.Microsecond)
	ts.Add(task)
	other := model.NewTask(1, 5*rt.Millisecond, 5*rt.Millisecond)
	vo := other.AddVertex(100 * rt.Microsecond)
	other.AddRequest(vo, 0, 1, 5*rt.Microsecond)
	ts.Add(other)
	if err := ts.Finalize(); err != nil {
		t.Fatal(err)
	}
	for _, cap := range []int{4, 31, 32, 33, 1024} {
		fast := partition.Algorithm1(ts, NewDPCPp(ts, cap, false), partition.WFD)
		slow := partition.Algorithm1(ts, &naiveEP{NewDPCPp(ts, cap, false)}, partition.WFD)
		if fast.Schedulable != slow.Schedulable || !reflect.DeepEqual(fast.WCRT, slow.WCRT) {
			t.Errorf("cap %d: fast=%v %v ref=%v %v", cap,
				fast.Schedulable, fast.WCRT, slow.Schedulable, slow.WCRT)
		}
	}
}

// TestPathViewsCachedAcrossRounds guards the analyzer-level view cache: the
// second request for a task's views must not allocate (beyond the map
// lookup) or recompute.
func TestPathViewsCachedAcrossRounds(t *testing.T) {
	ts := handSet(t)
	a := NewDPCPp(ts, DefaultPathCap, false)
	task := ts.Task(0)
	first := a.pathViews(task)
	allocs := testing.AllocsPerRun(100, func() {
		a.pathViews(task)
	})
	if allocs > 0 {
		t.Errorf("cached pathViews allocates %v per call, want 0", allocs)
	}
	second := a.pathViews(task)
	if &first[0] != &second[0] {
		t.Error("cached pathViews returned a different slice")
	}
}
