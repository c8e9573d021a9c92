package analysis

import (
	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
	"dpcpp/internal/rta"
)

// DPCPp is the response-time analysis of Sec. IV. With en=false it
// evaluates Theorem 1 exactly per candidate worst-case path (DPCP-p-EP),
// using the signature-collapsed path views of model.EnumerateViews: paths
// with identical per-resource request vectors yield identical Theorem 1
// terms except for L(lambda) and the on-path non-critical WCET, in which
// the bound is monotone, so only the per-signature maximum is evaluated.
// With en=true, or whenever a DAG has more than pathCap complete paths, it
// substitutes the per-term path extremes computed by DAG dynamic
// programming (DPCP-p-EN).
//
// Every analyzer computes through a Scratch (see scratch.go): NewDPCPp owns
// a private one, TestWith threads a caller-recycled one so steady-state
// analysis rounds allocate nothing.
type DPCPp struct {
	ts      *model.Taskset
	pathCap int
	en      bool
	sc      *Scratch

	// byPrio caches ByPriorityDesc for the analyzer's lifetime: the sort
	// result (including its tie order, which feeds the eta terms) is fixed
	// per taskset, and WCRTs runs once per partitioning round.
	byPrio []*model.Task

	// Fallbacks counts tasks analyzed with EN bounds because their path
	// count exceeded pathCap (diagnostics only). It increments once per
	// task a round actually analyzes, including view-cache hits; tasks
	// below a round's first miss are not analyzed under untilMiss and are
	// not counted.
	Fallbacks int

	// Delta-analysis hooks (see delta.go); all nil outside delta runs,
	// costing the production path a nil check each.
	//
	// fix, when set, snapshots each converged task's per-view fixed
	// points; it is cleared at the start of every WCRTs pass, so it always
	// holds the latest round. plans records the collapse plan of every EP
	// view enumeration; the view cache spans rounds, so plans accumulate
	// for the analyzer's lifetime. warmFix seeds the next taskWCRT's
	// fixed-point iterates (element-wise max with the cold start); the
	// delta analyzer sets it immediately before a taskWCRT call and clears
	// it after.
	fix     map[rt.TaskID][]rt.Time
	plans   map[rt.TaskID]*model.ViewPlan
	warmFix []rt.Time
}

type cachedViews struct {
	views    []pathView
	fallback bool
}

// NewDPCPp returns a DPCP-p analyzer over the taskset with its own private
// scratch. Use TestWith to recycle scratch across analyses.
func NewDPCPp(ts *model.Taskset, pathCap int, en bool) *DPCPp {
	return newDPCPp(NewScratch(), ts, pathCap, en)
}

func newDPCPp(sc *Scratch, ts *model.Taskset, pathCap int, en bool) *DPCPp {
	sc.analyzerReset()
	return &DPCPp{ts: ts, pathCap: pathCap, en: en, sc: sc,
		byPrio: ts.ByPriorityDesc()}
}

// WCRTs implements partition.Analyzer: it analyzes tasks from highest to
// lowest priority so that eta terms can use the already-computed bounds of
// higher-priority tasks (Sec. IV-B). A task's bound reads only its own
// partition data and the bounds above it, so with untilMiss the pass stops
// right after the first task that misses its deadline and every value it
// did compute equals the full pass's.
//
// The returned map is scratch-owned and valid until the next WCRTs call on
// this analyzer; internal/partition copies it into every Result it hands
// out.
func (a *DPCPp) WCRTs(p *partition.Partition, untilMiss bool) map[rt.TaskID]rt.Time {
	round := a.sc.stageStart()
	clear(a.fix)
	wcrts := a.sc.wcrts
	clear(wcrts)
	for _, t := range a.byPrio {
		r := a.taskWCRT(p, t, wcrts)
		wcrts[t.ID] = r
		if untilMiss && r > t.Deadline {
			break
		}
	}
	a.sc.stageEnd(StageRound, round)
	return wcrts
}

// pathView abstracts "one candidate worst-case path": a signature-collapsed
// view over enumerated paths (EP) or the per-term extremes over all paths
// (EN).
type pathView struct {
	length     rt.Time // L(lambda) (EN: L*)
	offNonCrit rt.Time // non-critical WCET of vertices not on the path
	onPath     []int64 // N^lambda_{i,q} (EN: max over paths)
	offPath    []int64 // N_{i,q} - N^lambda_{i,q} (EN: N - min over paths)
}

func (a *DPCPp) pathViews(t *model.Task) []pathView {
	c, ok := a.sc.viewCache[t.ID]
	if !ok {
		start := a.sc.stageStart()
		c = a.buildViews(t)
		a.sc.stageEnd(StageViews, start)
		a.sc.viewCache[t.ID] = c
	}
	if c.fallback {
		a.Fallbacks++
	}
	return c.views
}

func (a *DPCPp) buildViews(t *model.Task) cachedViews {
	nr := a.ts.NumResources
	s := a.sc
	if !a.en {
		var pvs []model.PathView
		var ok bool
		if a.plans != nil {
			// Delta runs compile the collapse structure alongside the
			// enumeration so later WCET-only patches can replay it instead
			// of re-enumerating (see model.ViewPlan).
			var plan *model.ViewPlan
			pvs, plan, ok = t.EnumerateViewsPlan(a.pathCap, &s.vs)
			if ok {
				a.plans[t.ID] = plan
			}
		} else {
			pvs, ok = t.EnumerateViewsScratch(a.pathCap, &s.vs)
		}
		if ok {
			// The enumerated views borrow s.vs until its next call; convert
			// them immediately into analyzer-lifetime arena storage (the
			// view cache spans partition rounds). One flat backing array
			// holds every view's request vectors.
			views := s.pviews.alloc(len(pvs))
			flat := s.flat.alloc(2 * nr * len(pvs))
			totalNonCrit := t.NonCritWCET()
			for i := range pvs {
				pv := &pvs[i]
				on := flat[2*i*nr : (2*i+1)*nr : (2*i+1)*nr]
				off := flat[(2*i+1)*nr : (2*i+2)*nr : (2*i+2)*nr]
				for q := 0; q < nr; q++ {
					n := pv.Requests(rt.ResourceID(q))
					on[q] = n
					off[q] = t.NumRequests(rt.ResourceID(q)) - n
				}
				views[i] = pathView{
					length:     pv.Length,
					offNonCrit: totalNonCrit - pv.NonCrit,
					onPath:     on,
					offPath:    off,
				}
			}
			return cachedViews{views: views}
		}
		return cachedViews{views: a.enView(t), fallback: true}
	}
	return cachedViews{views: a.enView(t)}
}

// enView builds the single path-oblivious EN view.
func (a *DPCPp) enView(t *model.Task) []pathView {
	nr := a.ts.NumResources
	s := a.sc
	b := t.PathBounds()
	views := s.pviews.alloc(1)
	on := s.flat.alloc(nr)
	off := s.flat.alloc(nr)
	for q := 0; q < nr; q++ {
		on[q] = b.MaxReq[q]
		off[q] = t.NumRequests(rt.ResourceID(q)) - b.MinReq[q]
	}
	views[0] = pathView{
		length:     b.MaxLength,
		offNonCrit: t.NonCritWCET() - b.MinNonCrit,
		onPath:     on,
		offPath:    off,
	}
	return views
}

// procCtx carries the per-processor precomputations for one analyzed task:
// the beta and gamma terms of Lemma 2 and the zeta term of Lemma 3.
type procCtx struct {
	proc rt.ProcID
	res  []rt.ResourceID // global resources placed here
	// resCS[j] = L_{i,res[j]}, the analyzed task's CS length per resource,
	// hoisted out of the per-view loops.
	resCS []rt.Time

	beta rt.Time // max lower-priority CS with ceiling >= pi_i (Lemma 2)

	// gamma terms: per higher-priority task h, its per-job CS work on the
	// resources of this processor plus its (T, R) for the eta function.
	hp []etaTerm
	// zeta terms: per other task j (any priority), its per-job CS work here.
	other []etaTerm
}

// etaTerm is one other task's contribution to an interference sum: its
// per-job work times eta_j over the window. src indexes the task in its
// taskCtx's eta source list (see taskCtx.srcResp).
type etaTerm struct {
	period rt.Time
	resp   rt.Time
	work   rt.Time
	src    int
}

// etaSum evaluates sum_j eta_j(window) * work_j, computing each eta from
// the term's own (T, R). The single-view evaluators (pathWCRT, Explain)
// and the Lemma 2 W recurrence use it.
func etaSum(terms []etaTerm, window rt.Time) rt.Time {
	var total rt.Time
	for _, e := range terms {
		total = rt.SatAdd(total, rt.SatMul(rta.Eta(window, e.resp, e.period), e.work))
	}
	return total
}

// etaWork is etaSum over eta counts precomputed per source task:
// etas[e.src] = eta_j(window). The saturating sum of non-negative terms is
// the same whichever way its eta factors were obtained, so the result is
// bit-identical to etaSum.
func etaWork(terms []etaTerm, etas []int64) rt.Time {
	var total rt.Time
	for _, e := range terms {
		total = rt.SatAdd(total, rt.SatMul(etas[e.src], e.work))
	}
	return total
}

// taskCtx bundles everything Theorem 1 needs for one task. It lives inside
// the analyzer's Scratch and every slice below is arena-backed: a taskCtx
// is valid only until the next buildCtx call on the same analyzer.
type taskCtx struct {
	task    *model.Task
	mi      int64
	procs   []procCtx // processors hosting at least one global resource
	cluster []etaTerm // Lemma 6: other tasks' CS work on this task's cluster
	// clusterRes are the global resources on this task's own cluster.
	clusterRes []rt.ResourceID
	// localRes are the local resources the task uses.
	localRes []rt.ResourceID
	// hpShared: for light tasks sharing a processor (Sec. VI), the
	// higher-priority light tasks co-located with this one; their whole
	// WCET interferes under partitioned fixed-priority scheduling.
	hpShared []etaTerm
	shared   bool

	// localCS / clusterCS cache the task's CS length per localRes /
	// clusterRes entry, hoisted out of the per-view loops.
	localCS   []rt.Time
	clusterCS []rt.Time

	// srcPeriod / srcResp hold (T_j, R_j) of every task with a term in
	// the Theorem 1 recurrence (procs[].other, cluster, hpShared); each
	// such etaTerm's src indexes them. eta_j(r) does not depend on the
	// processor, so taskWCRT's fixed-point step computes it once per task
	// into etas and every zeta, cluster and shared sum reuses the count.
	// srcOf maps a position in ts.Tasks to 1 + its source index (0: none).
	srcPeriod []rt.Time
	srcResp   []rt.Time
	srcOf     []int64
	etas      []int64

	// eps memoizes the Lemma 2 per-request blocking bound across the
	// per-view loop: the W fixed point depends on the view only through
	// base = L_{i,q} + off-path co-located CS work + beta, so views
	// sharing a base (the common case after signature collapse) reuse it.
	// rt.Infinity marks a diverged recurrence. The table is the Scratch's
	// flat (proc, base) table, emptied in O(1) per task.
	eps *epsTable
	// epsScratch holds the per-processor epsilon values of the view under
	// evaluation in the single-view path (pathWCRT: Explain and reference
	// implementations); the batched path keeps its own flat array.
	epsScratch []rt.Time
}

// epsKey identifies one Lemma 2 fixed-point computation within a task's
// analysis round.
type epsKey struct {
	proc rt.ProcID
	base rt.Time
}

// term returns the etaTerm of ts.Tasks[pos] with the given work, adding
// the task to the eta source list on first use. Every source list has
// capacity len(ts.Tasks), so the appends never reallocate.
func (c *taskCtx) term(pos int, other *model.Task, wcrts map[rt.TaskID]rt.Time, work rt.Time) etaTerm {
	if c.srcOf[pos] == 0 {
		c.srcPeriod = append(c.srcPeriod, other.Period)
		c.srcResp = append(c.srcResp, knownOrDeadline(wcrts, other))
		c.srcOf[pos] = int64(len(c.srcPeriod))
	}
	src := int(c.srcOf[pos] - 1)
	return etaTerm{period: other.Period, resp: c.srcResp[src], work: work, src: src}
}

func (a *DPCPp) buildCtx(p *partition.Partition, t *model.Task,
	wcrts map[rt.TaskID]rt.Time) *taskCtx {

	ts := a.ts
	s := a.sc
	s.taskReset()
	ctx := &s.ctx
	ctx.task = t
	ctx.mi = int64(p.NumProcs(t.ID))
	if ctx.mi == 0 {
		ctx.mi = 1
	}
	ctx.procs = ctx.procs[:0]
	ctx.cluster = nil
	ctx.clusterRes = nil
	ctx.clusterCS = nil
	ctx.hpShared = nil
	ctx.shared = false

	// nOther bounds every eta-term list: each task other than t contributes
	// at most one term per list.
	nOther := len(ts.Tasks)
	ctx.srcOf = s.i64s.allocZero(nOther)
	ctx.srcPeriod = s.times.alloc(nOther)[:0]
	ctx.srcResp = s.times.alloc(nOther)[:0]

	nr := ts.NumResources
	localRes := s.resIDs.alloc(nr)[:0]
	localCS := s.times.alloc(nr)[:0]
	for q := 0; q < nr; q++ {
		rid := rt.ResourceID(q)
		if ts.IsLocal(rid) && t.UsesResource(rid) {
			localRes = append(localRes, rid)
			localCS = append(localCS, t.CS(rid))
		}
	}
	ctx.localRes, ctx.localCS = localRes, localCS

	for k := 0; k < ts.NumProcs; k++ {
		proc := rt.ProcID(k)
		res := p.ResourcesOn(proc)
		if len(res) == 0 {
			continue
		}
		pc := procCtx{proc: proc, res: res, resCS: s.times.alloc(len(res))}
		for j, u := range res {
			pc.resCS[j] = t.CS(u)
		}
		pc.hp = s.terms.alloc(nOther)[:0]
		pc.other = s.terms.alloc(nOther)[:0]
		for pos, other := range ts.Tasks {
			if other.ID == t.ID {
				continue
			}
			var work rt.Time
			for _, u := range res {
				work = rt.SatAdd(work, other.CSWork(u))
			}
			if work == 0 {
				continue
			}
			term := ctx.term(pos, other, wcrts, work)
			pc.other = append(pc.other, term)
			if other.Priority.Higher(t.Priority) {
				pc.hp = append(pc.hp, term)
			} else {
				// Lower-priority tasks contribute to beta: their longest
				// CS on a co-located resource whose ceiling reaches pi_i.
				for _, u := range res {
					if other.UsesResource(u) && ts.CeilingAtLeast(u, t.Priority) {
						if cs := other.CS(u); cs > pc.beta {
							pc.beta = cs
						}
					}
				}
			}
		}
		ctx.procs = append(ctx.procs, pc)
	}

	if p.IsShared(t.ID) {
		ctx.shared = true
		ctx.mi = 1
		hpShared := s.terms.alloc(nOther)[:0]
		for _, k := range p.Procs(t.ID) {
			for _, id := range p.SharedOn(k) {
				if id == t.ID {
					continue
				}
				pos := ts.TaskIndex(id)
				other := ts.Tasks[pos]
				if other.Priority.Higher(t.Priority) {
					hpShared = append(hpShared, ctx.term(pos, other, wcrts, other.WCET()))
				}
			}
		}
		ctx.hpShared = hpShared
	}

	ctx.eps = &s.eps
	ctx.epsScratch = s.times.alloc(len(ctx.procs))

	ctx.clusterRes = p.AppendClusterResources(s.resIDs.alloc(nr)[:0], t.ID)
	if len(ctx.clusterRes) > 0 {
		ctx.clusterCS = s.times.alloc(len(ctx.clusterRes))
		for j, u := range ctx.clusterRes {
			ctx.clusterCS[j] = t.CS(u)
		}
		cluster := s.terms.alloc(nOther)[:0]
		for pos, other := range ts.Tasks {
			if other.ID == t.ID {
				continue
			}
			var work rt.Time
			for _, u := range ctx.clusterRes {
				work = rt.SatAdd(work, other.CSWork(u))
			}
			if work > 0 {
				cluster = append(cluster, ctx.term(pos, other, wcrts, work))
			}
		}
		ctx.cluster = cluster
	}
	ctx.etas = s.i64s.alloc(len(ctx.srcPeriod))
	return ctx
}

// taskWCRT evaluates Theorem 1 over every candidate path view of one task.
// The per-view constants (Lemmas 4 and 5, the static Lemma 6 term, and the
// Lemma 2/3 epsilons) are computed up front into flat batch arrays — the
// epsilons processor-major, so one processor's beta/gamma tables and its
// (proc, base) rows in the epsilon table stay hot across the whole view
// batch — and the response-time fixed points of all views then iterate in
// lockstep via rta.FixPointBatch, streaming the shared eta tables once per
// wave instead of once per view. Each fixed-point step computes eta_j(r)
// once per contributing task j (ctx.etas) and forms every processor's
// zeta_k(r), the Lemma 6 cluster sum and the shared-processor term as
// sum_j eta_j * work_j from those counts, instead of dividing once per
// (processor, task) pair. Results are bit-identical to evaluating pathWCRT
// per view (the epequiv suite pins this against the per-path reference and
// the memo-free directRef).
//
//schedlint:hotpath
func (a *DPCPp) taskWCRT(p *partition.Partition, t *model.Task,
	wcrts map[rt.TaskID]rt.Time) rt.Time {

	ctx := a.buildCtx(p, t, wcrts)
	// A light task runs sequentially: the whole job is its only "path";
	// every request is on it and nothing runs off it (handled by viewsFor).
	views := a.viewsFor(ctx)
	nv := len(views)
	np := len(ctx.procs)
	s := a.sc

	bs := s.times.alloc(nv)
	iIntras := s.times.alloc(nv)
	iaStatics := s.times.alloc(nv)
	xs := s.times.alloc(nv)
	eps := s.times.alloc(nv * np)
	done := s.bools.alloc(nv)

	for vi := range views {
		v := &views[vi]
		// Lemma 4: intra-task blocking (constant in r).
		b := a.intraBlocking(ctx, v)
		// Lemma 5: intra-task interference (constant in r).
		iIntra := v.offNonCrit
		for j, q := range ctx.localRes {
			iIntra = rt.SatAdd(iIntra, rt.SatMul(v.offPath[q], ctx.localCS[j]))
		}
		// Static off-path agent work on the own cluster (Lemma 6, Eq. 9).
		var iaStatic rt.Time
		for j, q := range ctx.clusterRes {
			iaStatic = rt.SatAdd(iaStatic, rt.SatMul(v.offPath[q], ctx.clusterCS[j]))
		}
		bs[vi], iIntras[vi], iaStatics[vi] = b, iIntra, iaStatic
		xs[vi] = rt.SatAdd(v.length, rt.SatAdd(b, rt.CeilDiv(iIntra, ctx.mi)))
	}
	if a.warmFix != nil && len(a.warmFix) == nv {
		// Warm start from retained per-view fixed points (delta runs only):
		// the caller guarantees each seed lies between the cold start and
		// the new least fixed point, so the iteration converges to exactly
		// the fixed point a cold start would reach (see rta.FixPointBatch).
		for vi := range xs {
			if w := a.warmFix[vi]; w > xs[vi] {
				xs[vi] = w
			}
		}
	}
	// Lemma 3 epsilon terms (constant in r; computed via Lemma 2's W).
	for pi := range ctx.procs {
		pc := &ctx.procs[pi]
		for vi := range views {
			eps[vi*np+pi] = a.epsilon(ctx, pc, &views[vi])
		}
	}

	srcPeriod, srcResp, etas := ctx.srcPeriod, ctx.srcResp, ctx.etas
	fixStart := s.stageStart()
	//schedlint:ignore hotpath closure captures only locals that never escape FixPointBatch; the alloc-gate benchmarks hold it to 0 allocs/op
	ok := rta.FixPointBatch(xs, t.Deadline, done, func(vi int, r rt.Time) rt.Time {
		v := &views[vi]
		ve := eps[vi*np : (vi+1)*np]
		// eta_j(r) once per contributing task, shared by every sum below.
		for j, resp := range srcResp {
			etas[j] = rta.Eta(r, resp, srcPeriod[j])
		}
		// Lemma 3: B_i <= sum_k min(eps_k, zeta_k(r)).
		var blocking rt.Time
		for i := range ctx.procs {
			zeta := etaWork(ctx.procs[i].other, etas)
			if ve[i] < zeta {
				blocking = rt.SatAdd(blocking, ve[i])
			} else {
				blocking = rt.SatAdd(blocking, zeta)
			}
		}
		// Lemma 6: I_A.
		ia := rt.SatAdd(etaWork(ctx.cluster, etas), iaStatics[vi])
		sum := rt.SatAdd(v.length, blocking)
		sum = rt.SatAdd(sum, bs[vi])
		sum = rt.SatAdd(sum, rt.CeilDiv(rt.SatAdd(iIntras[vi], ia), ctx.mi))
		// Sec. VI: higher-priority light tasks on the same processor
		// interfere with their full WCET (partitioned fixed-priority).
		return rt.SatAdd(sum, etaWork(ctx.hpShared, etas))
	})
	s.stageEnd(StageFixPoint, fixStart)
	if !ok {
		// One diverged view dooms the task either way; per-view results are
		// irrelevant past this point, exactly like the early exit of the
		// sequential loop.
		return rt.Infinity
	}
	if a.fix != nil {
		// Delta runs retain the per-view fixed points as warm-start seeds.
		a.fix[t.ID] = append([]rt.Time(nil), xs...)
	}
	var worst rt.Time
	for _, r := range xs {
		if r > worst {
			worst = r
		}
	}
	return worst
}

// pathWCRT evaluates Theorem 1 for one path view:
//
//	r <= L(lambda) + B_i + b_i + (I_intra + I_A) / m_i
//
// as the least fixed point over r (B and I_A depend on r through eta).
// The production path (taskWCRT) batches this computation across views;
// pathWCRT remains the single-view evaluator behind Explain and the
// per-path reference implementation of the equivalence suite.
func (a *DPCPp) pathWCRT(ctx *taskCtx, v *pathView) rt.Time {
	t := ctx.task

	// Lemma 4: intra-task blocking (constant in r).
	b := a.intraBlocking(ctx, v)

	// Lemma 5: intra-task interference (constant in r).
	iIntra := v.offNonCrit
	for j, q := range ctx.localRes {
		iIntra = rt.SatAdd(iIntra, rt.SatMul(v.offPath[q], ctx.localCS[j]))
	}

	// Lemma 3 epsilon terms (constant in r; computed via Lemma 2's W).
	eps := ctx.epsScratch
	for i := range ctx.procs {
		eps[i] = a.epsilon(ctx, &ctx.procs[i], v)
	}

	// Static off-path agent work on the own cluster (Lemma 6, Eq. 9).
	var iaStatic rt.Time
	for j, q := range ctx.clusterRes {
		iaStatic = rt.SatAdd(iaStatic, rt.SatMul(v.offPath[q], ctx.clusterCS[j]))
	}

	recurrence := func(r rt.Time) rt.Time {
		// Lemma 3: B_i <= sum_k min(eps_k, zeta_k(r)).
		var blocking rt.Time
		for i := range ctx.procs {
			zeta := etaSum(ctx.procs[i].other, r)
			if eps[i] < zeta {
				blocking = rt.SatAdd(blocking, eps[i])
			} else {
				blocking = rt.SatAdd(blocking, zeta)
			}
		}
		// Lemma 6: I_A.
		ia := rt.SatAdd(etaSum(ctx.cluster, r), iaStatic)
		sum := rt.SatAdd(v.length, blocking)
		sum = rt.SatAdd(sum, b)
		sum = rt.SatAdd(sum, rt.CeilDiv(rt.SatAdd(iIntra, ia), ctx.mi))
		// Sec. VI: higher-priority light tasks on the same processor
		// interfere with their full WCET (partitioned fixed-priority).
		return rt.SatAdd(sum, etaSum(ctx.hpShared, r))
	}

	x0 := rt.SatAdd(v.length, rt.SatAdd(b, rt.CeilDiv(iIntra, ctx.mi)))
	r, ok := rta.FixPoint(x0, t.Deadline, recurrence)
	if !ok {
		return rt.Infinity
	}
	return r
}

// intraBlocking evaluates Lemma 4.
func (a *DPCPp) intraBlocking(ctx *taskCtx, v *pathView) rt.Time {
	var b rt.Time
	// Eq. (6): local resources the path itself requests.
	for j, q := range ctx.localRes {
		if v.onPath[q] > 0 {
			b = rt.SatAdd(b, rt.SatMul(v.offPath[q], ctx.localCS[j]))
		}
	}
	// Eq. (7): global resources on processors the path requests from.
	for i := range ctx.procs {
		pc := &ctx.procs[i]
		sigma := false
		for _, u := range pc.res {
			if v.onPath[u] > 0 {
				sigma = true
				break
			}
		}
		if !sigma {
			continue
		}
		for j, u := range pc.res {
			b = rt.SatAdd(b, rt.SatMul(v.offPath[u], pc.resCS[j]))
		}
	}
	return b
}

// epsilon evaluates Eq. (4) for one processor: the per-request blocking
// bound (beta + gamma(W)) scaled by the number of requests the path issues
// to each resource on the processor. W is the Lemma 2 request response
// time. When a W recurrence diverges beyond the deadline, epsilon becomes
// Infinity and Lemma 3's min() falls back to the zeta bound, which remains
// sound.
//
// The W fixed point depends on the view only through its base value, so
// results are memoized in ctx.eps keyed by (processor, base) and shared
// across the per-view loop; rt.Infinity records divergence.
func (a *DPCPp) epsilon(ctx *taskCtx, pc *procCtx, v *pathView) rt.Time {
	t := ctx.task

	// Off-path intra-task CS work on this processor's resources (the
	// middle term of Eq. 3), shared by every W on this processor.
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
		key := epsKey{proc: pc.proc, base: base}
		perReq, hit := ctx.eps.get(key)
		if !hit {
			//schedlint:ignore hotpath closure captures only locals that never escape FixPoint; the alloc-gate benchmarks hold it to 0 allocs/op
			w, ok := rta.FixPoint(base, t.Deadline, func(w rt.Time) rt.Time {
				return rt.SatAdd(base, etaSum(pc.hp, w))
			})
			if ok {
				perReq = rt.SatAdd(pc.beta, etaSum(pc.hp, w))
			} else {
				perReq = rt.Infinity
			}
			ctx.eps.put(key, perReq)
		}
		if perReq >= rt.Infinity {
			return rt.Infinity
		}
		eps = rt.SatAdd(eps, rt.SatMul(n, perReq))
	}
	return eps
}
