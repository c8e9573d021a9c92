package analysis

import (
	"slices"

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
// (EN). prepareViews derives the off-path request count of resource q as
// N_{i,q} - onMin[q]; for a single path or signature onMin is onPath.
type pathView struct {
	length     rt.Time // L(lambda) (EN: L*)
	offNonCrit rt.Time // non-critical WCET of vertices not on the path
	onPath     []int64 // N^lambda_{i,q} (EN: max over paths)
	onMin      []int64 // N^lambda_{i,q} (EN: min over paths)
}

func (a *DPCPp) pathViews(t *model.Task) []pathView {
	c, ok := a.sc.viewCache[t.ID]
	if !ok {
		start := a.sc.stageStart()
		c = a.buildViews(t)
		a.sc.stageEnd(StageViews, start)
		a.sc.viewCache[t.ID] = c
	}
	return c.views
}

func (a *DPCPp) buildViews(t *model.Task) cachedViews {
	nr := a.ts.NumResources
	s := a.sc
	if !a.en {
		pvs, ok := t.EnumerateViews(a.pathCap, &s.vs)
		if ok {
			// The enumerated views borrow s.vs until its next call; copy
			// them immediately into analyzer-lifetime arena storage (the
			// view cache spans partition rounds). One flat chunk holds
			// every view's request vector.
			views := s.pviews.alloc(len(pvs))
			flat := s.flat.alloc(nr * len(pvs))
			totalNonCrit := t.NonCritWCET()
			for i := range pvs {
				pv := &pvs[i]
				on := flat[i*nr : (i+1)*nr : (i+1)*nr]
				copy(on, pv.NReq)
				views[i] = pathView{
					length:     pv.Length,
					offNonCrit: totalNonCrit - pv.NonCrit,
					onPath:     on,
					onMin:      on,
				}
			}
			return cachedViews{views: views}
		}
		return cachedViews{views: a.enView(t), fallback: true}
	}
	return cachedViews{views: a.enView(t)}
}

// enView builds the single path-oblivious EN view. Its request vectors
// borrow the task's read-only path bounds.
func (a *DPCPp) enView(t *model.Task) []pathView {
	b := t.PathBounds()
	views := a.sc.pviews.alloc(1)
	views[0] = pathView{
		length:     b.MaxLength,
		offNonCrit: t.NonCritWCET() - b.MinNonCrit,
		onPath:     b.MaxReq,
		onMin:      b.MinReq,
	}
	return views
}

// procCtx carries the per-processor precomputations for one analyzed task:
// the beta and gamma terms of Lemma 2 and the zeta term of Lemma 3. From
// res and resCS, prepareViews forms each view's off-path CS work here once;
// Lemma 2 (the W base), Lemma 4 (Eq. 7) and, if own, Lemma 6 read it.
type procCtx struct {
	proc rt.ProcID
	res  []rt.ResourceID // global resources placed here
	// resCS[j] = L_{i,res[j]}, the analyzed task's CS length per resource,
	// hoisted out of the per-view loops.
	resCS []rt.Time
	// own marks a processor of the task's own cluster, whose resources
	// are the paper's Phi^p(tau_i) of Lemma 6.
	own bool

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
// the term's own (T, R). The Lemma 2 W recurrence uses it.
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
// is valid only until the next buildCtx call on the same analyzer. Lemmas
// 2, 4 and 6 share the off-path sums over procs (see procCtx); Lemmas 4
// (Eq. 6) and 5 share those over localRes.
type taskCtx struct {
	task    *model.Task
	mi      int64
	procs   []procCtx // processors hosting at least one global resource
	cluster []etaTerm // Lemma 6: other tasks' CS work on this task's cluster
	// localRes are the local resources the task uses.
	localRes []rt.ResourceID
	// hpShared: for light tasks sharing a processor (Sec. VI), the
	// higher-priority light tasks co-located with this one; their whole
	// WCET interferes under partitioned fixed-priority scheduling.
	hpShared []etaTerm
	shared   bool

	// localCS caches the task's CS length per localRes entry, hoisted out
	// of the per-view loops.
	localCS []rt.Time

	// srcPeriod / srcResp hold (T_j, R_j) of every task with a term in
	// the Theorem 1 recurrence (procs[].other, cluster, hpShared); each
	// such etaTerm's src indexes them. eta_j(r) does not depend on the
	// processor, so theorem1 computes it once per task into etas and
	// every zeta, cluster and shared sum reuses the count.
	// srcOf maps a position in ts.Tasks to 1 + its source index (0: none).
	srcPeriod []rt.Time
	srcResp   []rt.Time
	srcOf     []int64
	etas      []int64

	// The task's candidate path views and their per-view state, set by
	// prepareViews. terms[vi] and xs[vi] are view vi's r-independent
	// Theorem 1 terms and fixed-point start value. viewEps(vi) are its
	// Lemma 3 epsilons, one per procs entry, once filled[vi] != 0; until
	// fillEps fills them they hold the off-path CS sums the W bases read,
	// or -1 on a processor the view does not request from.
	views   []pathView
	terms   []viewTerms
	xs      []rt.Time
	epsSlot []rt.Time
	filled  []int64

	// eps memoizes the Lemma 2 per-request blocking bound across the
	// task's filled views: the W fixed point depends on the view only
	// through base = L_{i,q} + off-path co-located CS work + beta, so
	// views sharing a base (the common case after signature collapse)
	// reuse it, whichever view is filled first. rt.Infinity marks a
	// diverged recurrence. The table is the Scratch's flat (proc, base)
	// table, emptied in O(1) per task.
	eps *epsTable
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
	ctx.hpShared = nil
	ctx.shared = false

	// nOther bounds every eta-term list: each task other than t contributes
	// at most one term per list.
	nOther := len(ts.Tasks)
	ctx.srcOf = s.times.allocZero(nOther)
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

	// clusterWork[src] sums eta source src's CS work on the task's own
	// cluster; any task with such work is a source from that processor on.
	clusterProcs := p.Procs(t.ID)
	clusterWork := s.times.allocZero(nOther)
	for k := 0; k < ts.NumProcs; k++ {
		proc := rt.ProcID(k)
		res := p.ResourcesOn(proc)
		if len(res) == 0 {
			continue
		}
		pc := procCtx{proc: proc, res: res, resCS: s.times.alloc(len(res)),
			own: slices.Contains(clusterProcs, proc)}
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
			if pc.own {
				clusterWork[term.src] = rt.SatAdd(clusterWork[term.src], work)
			}
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
	cluster := s.terms.alloc(len(ctx.srcPeriod))[:0]
	for src, work := range clusterWork[:len(ctx.srcPeriod)] {
		if work > 0 {
			cluster = append(cluster, etaTerm{period: ctx.srcPeriod[src],
				resp: ctx.srcResp[src], work: work, src: src})
		}
	}
	ctx.cluster = cluster

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
	ctx.etas = s.times.alloc(len(ctx.srcPeriod))
	return ctx
}

// taskWCRT bounds one task's response time by the largest Theorem 1 fixed
// point over its candidate path views. prepareViews computes every view's
// r-independent terms, then rta.MaxFixPoint admits the views over
// theorem1: it iterates the view with the largest start value to its
// least fixed point R, and a view whose right-hand side at R is at most R
// (the verdict certificate, Certify) is admitted with that one
// evaluation, since it can neither raise the maximum nor diverge. Only
// the remaining views iterate, each from its own start value. One
// diverged view makes the bound rt.Infinity. A view's Lemma 3 epsilons
// are filled on its first evaluation: MaxFixPoint evaluates no view when
// the largest start value exceeds D and stops at the first view that
// diverges, so the Lemma 2 W fixed points of the views it never reaches
// are never computed. The epequiv suite pins the result against the
// per-path reference and the memo-free directRef.
//
//schedlint:hotpath
func (a *DPCPp) taskWCRT(p *partition.Partition, t *model.Task,
	wcrts map[rt.TaskID]rt.Time) rt.Time {

	ctx := a.buildCtx(p, t, wcrts)
	a.prepareViews(ctx, a.viewsFor(ctx))
	s := a.sc

	fixStart := s.stageStart()
	//schedlint:ignore hotpath closure captures only locals that never escape MaxFixPoint; the alloc-gate benchmarks hold it to 0 allocs/op
	worst, ok := rta.MaxFixPoint(ctx.xs, t.Deadline, func(vi int, r rt.Time) rt.Time {
		a.fillEps(ctx, vi)
		return ctx.theorem1(vi, r).total
	})
	s.stageEnd(StageFixPoint, fixStart)
	if !ok {
		return rt.Infinity
	}
	return worst
}

// viewsFor returns the candidate path views of the context's task. The
// shared-task (Sec. VI) view — a light task runs sequentially, so the whole
// job is its only path, with every request on it and nothing off it —
// borrows the task's read-only request totals and is rebuilt per round:
// like the taskCtx it is valid only until the next buildCtx call on this
// analyzer.
func (a *DPCPp) viewsFor(ctx *taskCtx) []pathView {
	t := ctx.task
	if !ctx.shared {
		return a.pathViews(t)
	}
	tot := t.RequestTotals()
	a.sc.sharedView[0] = pathView{length: t.WCET(), onPath: tot, onMin: tot}
	return a.sc.sharedView[:1]
}

// viewTerms are the Theorem 1 terms of one path view that do not depend
// on the response time r.
type viewTerms struct {
	b        rt.Time // b_i (Lemma 4)
	iIntra   rt.Time // I^intra_i (Lemma 5)
	iaStatic rt.Time // off-path agent work on the own cluster (Lemma 6, Eq. 9)
}

// prepareViews sets the context's views and computes their r-independent
// Theorem 1 terms into per-task arena slices: ctx.terms, and each fixed
// point's start value xs[vi] = L + b_i + ceil(I^intra_i / m_i). It leaves
// the Lemma 3 epsilons to fillEps, which runs on a view's first
// evaluation, and stores in their slots what fillEps reads: the view's
// off-path CS sum on each processor it requests from, -1 on the others.
//
// Each off-path CS sum is formed once. A local resource's product goes to
// I^intra (Lemma 5) and, if the path requests it, to b_i (Eq. 6). Each
// (processor, view) off-path sum goes to b_i when the path requests from
// the processor (Eq. 7), to the view's epsilon slot for the Lemma 2 W
// bases (Eq. 3), and to the static agent term on the own cluster
// (Lemma 6). That pass is processor-major, so one processor's resource
// tables stay hot across the whole view batch.
func (a *DPCPp) prepareViews(ctx *taskCtx, views []pathView) {
	s := a.sc
	np := len(ctx.procs)
	terms := s.vterms.alloc(len(views))
	slots := s.times.alloc(len(views) * np)
	xs := s.times.alloc(len(views))
	nreq := ctx.task.RequestTotals()
	for vi := range views {
		v := &views[vi]
		vt := viewTerms{iIntra: v.offNonCrit}
		for j, q := range ctx.localRes {
			off := rt.SatMul(nreq[q]-v.onMin[q], ctx.localCS[j])
			vt.iIntra = rt.SatAdd(vt.iIntra, off)
			if v.onPath[q] > 0 {
				vt.b = rt.SatAdd(vt.b, off)
			}
		}
		terms[vi] = vt
	}
	for pi := range ctx.procs {
		pc := &ctx.procs[pi]
		for vi := range views {
			v, vt := &views[vi], &terms[vi]
			var off rt.Time
			requested := false
			for j, u := range pc.res {
				off = rt.SatAdd(off, rt.SatMul(nreq[u]-v.onMin[u], pc.resCS[j]))
				requested = requested || v.onPath[u] > 0
			}
			if pc.own {
				vt.iaStatic = rt.SatAdd(vt.iaStatic, off)
			}
			if !requested {
				slots[vi*np+pi] = -1
				continue
			}
			vt.b = rt.SatAdd(vt.b, off)
			slots[vi*np+pi] = off
		}
	}
	for vi := range views {
		vt := &terms[vi]
		xs[vi] = rt.SatAdd(views[vi].length, rt.SatAdd(vt.b, rt.CeilDiv(vt.iIntra, ctx.mi)))
	}
	ctx.views, ctx.terms, ctx.xs, ctx.epsSlot = views, terms, xs, slots
	ctx.filled = s.times.allocZero(len(views))
}

// viewEps returns view vi's epsilon slots, one per ctx.procs entry.
func (ctx *taskCtx) viewEps(vi int) []rt.Time {
	np := len(ctx.procs)
	return ctx.epsSlot[vi*np : (vi+1)*np]
}

// fillEps turns view vi's epsilon slots from prepareViews' off-path sums
// into its Lemma 3 epsilons, once per view and task: 0 on a processor the
// path does not request from, epsilon's Eq. (4) bound on the others. It is
// the only place epsilons are computed; taskWCRT calls it on a view's
// first evaluation, Explain and Certify on every view before evaluating
// it. The (proc, base) memo is keyed by value, so the order in which views
// are filled never changes a result.
func (a *DPCPp) fillEps(ctx *taskCtx, vi int) {
	if ctx.filled[vi] != 0 {
		return
	}
	ctx.filled[vi] = 1
	e := ctx.viewEps(vi)
	for k, off := range e {
		if off < 0 {
			e[k] = 0
			continue
		}
		e[k] = a.epsilon(ctx, &ctx.procs[k], &ctx.views[vi], off)
	}
}

// rhs is Theorem 1's right-hand side at one r, with the r-dependent
// components Explain reports.
type rhs struct {
	blocking rt.Time // B_i (Lemma 3)
	agent    rt.Time // I^A_i (Lemma 6)
	shared   rt.Time // Sec. VI co-located higher-priority light tasks
	total    rt.Time
}

// theorem1 evaluates the right-hand side of Theorem 1 for view vi:
//
//	L(lambda) + B_i + b_i + (I^intra_i + I^A_i) / m_i  (+ the Sec. VI term)
//
// The view's epsilons must be filled (fillEps). It is the only evaluation
// of the bound: taskWCRT and Explain iterate it to its least fixed point,
// and Certify evaluates it once per view. eta_j(r) is computed once per
// contributing task (ctx.etas), and every processor's zeta_k(r), the
// Lemma 6 cluster sum and the shared-processor term are formed as
// sum_j eta_j * work_j from those counts.
func (ctx *taskCtx) theorem1(vi int, r rt.Time) rhs {
	v, terms, eps := &ctx.views[vi], &ctx.terms[vi], ctx.viewEps(vi)
	etas := ctx.etas
	for j, resp := range ctx.srcResp {
		etas[j] = rta.Eta(r, resp, ctx.srcPeriod[j])
	}
	var f rhs
	// Lemma 3: B_i <= sum_k min(eps_k, zeta_k(r)).
	for i := range ctx.procs {
		f.blocking = rt.SatAdd(f.blocking, min(eps[i], etaWork(ctx.procs[i].other, etas)))
	}
	f.agent = rt.SatAdd(etaWork(ctx.cluster, etas), terms.iaStatic)
	// Higher-priority light tasks on the same processor interfere with
	// their full WCET (partitioned fixed-priority).
	f.shared = etaWork(ctx.hpShared, etas)
	f.total = rt.SatAdd(v.length, f.blocking)
	f.total = rt.SatAdd(f.total, terms.b)
	f.total = rt.SatAdd(f.total, rt.CeilDiv(rt.SatAdd(terms.iIntra, f.agent), ctx.mi))
	f.total = rt.SatAdd(f.total, f.shared)
	return f
}

// epsilon evaluates Eq. (4) for one processor the path requests from: the
// per-request blocking bound (beta + gamma(W)) scaled by the number of
// requests the path issues to each resource on the processor. W is the
// Lemma 2 request response time; offWork, the middle term of its base
// (Eq. 3), is the processor's off-path sum that prepareViews shares with
// Lemmas 4 and 6 and stores in the view's epsilon slot. When a W
// recurrence diverges beyond the deadline, epsilon becomes Infinity and
// Lemma 3's min() falls back to the zeta bound, which remains sound.
//
// The W fixed point depends on the view only through its base value, so
// results are memoized in ctx.eps keyed by (processor, base) and shared
// across the task's filled views; rt.Infinity records divergence.
func (a *DPCPp) epsilon(ctx *taskCtx, pc *procCtx, v *pathView, offWork rt.Time) rt.Time {
	t := ctx.task
	var eps rt.Time
	for j, q := range pc.res {
		n := v.onPath[q]
		if n == 0 {
			continue
		}
		base := rt.SatAdd(pc.resCS[j], rt.SatAdd(offWork, pc.beta))
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
