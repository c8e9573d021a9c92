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
	return c.views
}

func (a *DPCPp) buildViews(t *model.Task) cachedViews {
	nr := a.ts.NumResources
	s := a.sc
	if !a.en {
		pvs, ok := t.EnumerateViews(a.pathCap, &s.vs)
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
	// processor, so theorem1 computes it once per task into etas and
	// every zeta, cluster and shared sum reuses the count.
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

// taskWCRT bounds one task's response time by the largest Theorem 1 fixed
// point over its candidate path views. prepareViews computes every view's
// r-independent terms, then rta.MaxFixPoint admits the views over
// theorem1: it iterates the view with the largest start value to its
// least fixed point R, and a view whose right-hand side at R is at most R
// (the verdict certificate, TestWCRTsAreCertified) is admitted with that
// one evaluation, since it can neither raise the maximum nor diverge. Only
// the remaining views iterate, each from its own start value. One
// diverged view makes the bound rt.Infinity. The epequiv suite pins the
// result against the per-path reference and the memo-free directRef.
//
//schedlint:hotpath
func (a *DPCPp) taskWCRT(p *partition.Partition, t *model.Task,
	wcrts map[rt.TaskID]rt.Time) rt.Time {

	ctx := a.buildCtx(p, t, wcrts)
	views := a.viewsFor(ctx)
	terms, eps, xs := a.prepareViews(ctx, views)
	np := len(ctx.procs)
	s := a.sc

	fixStart := s.stageStart()
	//schedlint:ignore hotpath closure captures only locals that never escape MaxFixPoint; the alloc-gate benchmarks hold it to 0 allocs/op
	worst, ok := rta.MaxFixPoint(xs, t.Deadline, func(vi int, r rt.Time) rt.Time {
		return ctx.theorem1(&views[vi], &terms[vi], eps[vi*np:(vi+1)*np], r).total
	})
	s.stageEnd(StageFixPoint, fixStart)
	if !ok {
		return rt.Infinity
	}
	return worst
}

// viewsFor returns the candidate path views of the context's task. The
// shared-task (Sec. VI) view — a light task runs sequentially, so the whole
// job is its only path, with every request on it and nothing off it — is
// rebuilt per round from per-task scratch: like the taskCtx it is valid
// only until the next buildCtx call on this analyzer.
func (a *DPCPp) viewsFor(ctx *taskCtx) []pathView {
	t := ctx.task
	if !ctx.shared {
		return a.pathViews(t)
	}
	s := a.sc
	nr := a.ts.NumResources
	on := s.i64s.alloc(nr)
	off := s.i64s.allocZero(nr)
	for q := 0; q < nr; q++ {
		on[q] = t.NumRequests(rt.ResourceID(q))
	}
	s.sharedView[0] = pathView{length: t.WCET(), onPath: on, offPath: off}
	return s.sharedView[:1]
}

// viewTerms are the Theorem 1 terms of one path view that do not depend
// on the response time r.
type viewTerms struct {
	b        rt.Time // b_i (Lemma 4)
	iIntra   rt.Time // I^intra_i (Lemma 5)
	iaStatic rt.Time // off-path agent work on the own cluster (Lemma 6, Eq. 9)
}

// prepareViews computes the r-independent Theorem 1 terms of every view
// into per-task arena slices: terms[vi]; the Lemma 3 epsilons (computed
// via Lemma 2's W), with eps[vi*len(ctx.procs)+k] the value of view vi on
// ctx.procs[k]; and each fixed point's start value
// xs[vi] = L + b_i + ceil(I^intra_i / m_i). The epsilons are filled
// processor-major, so one processor's beta/gamma tables and its (proc,
// base) rows in the epsilon table stay hot across the whole view batch.
func (a *DPCPp) prepareViews(ctx *taskCtx, views []pathView) (terms []viewTerms, eps, xs []rt.Time) {
	s := a.sc
	np := len(ctx.procs)
	terms = s.vterms.alloc(len(views))
	eps = s.times.alloc(len(views) * np)
	xs = s.times.alloc(len(views))
	for vi := range views {
		v := &views[vi]
		vt := viewTerms{b: a.intraBlocking(ctx, v), iIntra: v.offNonCrit}
		for j, q := range ctx.localRes {
			vt.iIntra = rt.SatAdd(vt.iIntra, rt.SatMul(v.offPath[q], ctx.localCS[j]))
		}
		for j, q := range ctx.clusterRes {
			vt.iaStatic = rt.SatAdd(vt.iaStatic, rt.SatMul(v.offPath[q], ctx.clusterCS[j]))
		}
		terms[vi] = vt
		xs[vi] = rt.SatAdd(v.length, rt.SatAdd(vt.b, rt.CeilDiv(vt.iIntra, ctx.mi)))
	}
	for pi := range ctx.procs {
		pc := &ctx.procs[pi]
		for vi := range views {
			eps[vi*np+pi] = a.epsilon(ctx, pc, &views[vi])
		}
	}
	return terms, eps, xs
}

// rhs is Theorem 1's right-hand side at one r, with the r-dependent
// components Explain reports.
type rhs struct {
	blocking rt.Time // B_i (Lemma 3)
	agent    rt.Time // I^A_i (Lemma 6)
	shared   rt.Time // Sec. VI co-located higher-priority light tasks
	total    rt.Time
}

// theorem1 evaluates the right-hand side of Theorem 1 for one view:
//
//	L(lambda) + B_i + b_i + (I^intra_i + I^A_i) / m_i  (+ the Sec. VI term)
//
// where terms and eps are the view's entries from prepareViews. It is the
// only evaluation of the bound: taskWCRT and Explain iterate it to its
// least fixed point. eta_j(r) is computed once per contributing task
// (ctx.etas), and every processor's zeta_k(r), the Lemma 6 cluster sum and
// the shared-processor term are formed as sum_j eta_j * work_j from those
// counts.
func (ctx *taskCtx) theorem1(v *pathView, terms *viewTerms, eps []rt.Time, r rt.Time) rhs {
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
