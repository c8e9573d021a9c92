package analysis

import (
	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
)

// Delta is the retained state of one successful DPCP-p analysis, kept so
// that a patched variant of the same taskset can be re-analyzed
// incrementally. It captures, from the final partitioning round:
//
//   - the finalized base taskset and the analysis options,
//   - the final partition and per-task WCRTs,
//   - every task's path views (heap-owned, detached from any Scratch),
//   - every task's path-view collapse plan (EP), for WCET-only replay, and
//   - every task's per-view response-time fixed points (warm-start seeds).
//
// A Delta is immutable after construction and safe for concurrent Apply
// calls (each Apply works through its own Scratch and only reads the
// state). Chained deltas share the unchanged tasks' views, plans and fixed
// points structurally, so a long patch chain costs memory only for what it
// touched.
//
// Ownership and invalidation: a Delta is only retained for schedulable
// results (an unschedulable run has no final WCRTs worth reusing), and
// reuse inside Apply is re-validated per partitioning round against the
// candidate partition — any round whose assignment differs from the
// retained final partition (augmented clusters, moved resources, added or
// removed tasks) falls back to a full recomputation of that round, with
// only the seeded path views retained.
type Delta struct {
	ts        *model.Taskset
	en        bool
	pathCap   int
	placement partition.PlacementHeuristic

	part  *partition.Partition
	wcrt  map[rt.TaskID]rt.Time
	views map[rt.TaskID]cachedViews
	plans map[rt.TaskID]*model.ViewPlan
	fix   map[rt.TaskID][]rt.Time
}

// newCapturingDPCPp returns a DPCP-p analyzer that records the internals a
// Delta retains: every converged task's per-view fixed points and every
// enumerated task's view plan (see DPCPp.fix and DPCPp.plans).
func newCapturingDPCPp(sc *Scratch, ts *model.Taskset, pathCap int, en bool) *DPCPp {
	a := newDPCPp(sc, ts, pathCap, en)
	a.fix = make(map[rt.TaskID][]rt.Time, len(ts.Tasks))
	a.plans = make(map[rt.TaskID]*model.ViewPlan, len(ts.Tasks))
	return a
}

// DeltaStats reports what an incremental run reused.
type DeltaStats struct {
	// Rounds is the number of partitioning rounds the run executed;
	// MatchedRounds of them matched the retained final partition and ran
	// incrementally.
	Rounds        int
	MatchedRounds int
	// Reused counts task analyses skipped outright (retained WCRT replayed);
	// Recomputed counts task analyses executed during matched rounds.
	Reused     int
	Recomputed int
	// WarmStarted counts recomputed tasks whose fixed points were seeded
	// from retained iterates; ViewsSeeded counts tasks whose path views
	// were reused verbatim; ViewsReplayed counts tasks whose views were
	// re-derived through a retained collapse plan instead of a fresh
	// enumeration.
	WarmStarted   int
	ViewsSeeded   int
	ViewsReplayed int
}

// NewDelta runs the full analysis for an EP or EN method and retains the
// delta state alongside the result. For unschedulable results (and for
// results produced without a final WCRTs pass) the state is nil. Methods
// other than DPCPpEP / DPCPpEN have no incremental form; NewDelta falls
// back to TestWith and returns a nil state.
func NewDelta(sc *Scratch, m Method, ts *model.Taskset, opts Options) (partition.Result, *Delta) {
	if m != DPCPpEP && m != DPCPpEN {
		return TestWith(sc, m, ts, opts), nil
	}
	if sc == nil {
		sc = NewScratch()
	}
	a := newCapturingDPCPp(sc, ts, opts.pathCap(), m == DPCPpEN)
	res := partition.Algorithm1(ts, a, opts.Placement)
	if !res.Schedulable {
		return res, nil
	}
	return res, retainDelta(a, res, opts.Placement, nil, nil)
}

// Base returns the finalized taskset the state was retained for.
func (d *Delta) Base() *model.Taskset { return d.ts }

// WCRT returns the retained response-time bound of one base task.
func (d *Delta) WCRT(id rt.TaskID) rt.Time { return d.wcrt[id] }

// Apply patches the base taskset and runs the incremental analysis; it is
// ApplyPatch + ApplyTo in one call. The returned hash is the patched
// taskset's canonical hash (the patch-aware cache key).
func (d *Delta) Apply(sc *Scratch, p model.Patch) (model.Hash, partition.Result, DeltaStats, *Delta, error) {
	patched, pd, err := model.ApplyPatch(d.ts, p)
	if err != nil {
		return model.Hash{}, partition.Result{}, DeltaStats{}, nil, err
	}
	res, stats, next := d.ApplyTo(sc, patched, pd)
	return patched.Hash(), res, stats, next, nil
}

// ApplyTo runs the incremental analysis for an already-patched taskset.
// patched and pd must come from model.ApplyPatch on this state's base.
//
// The result is bit-identical to TestWith on the patched taskset — same
// verdict, WCRTs, rounds, reason and final partition — because reuse only
// happens where replaying the base computation is provably the identity:
//
//   - Path views are reused for tasks whose structure the patch did not
//     touch (views are a deterministic function of the task alone).
//   - Whole task analyses are skipped only in rounds whose partition
//     equals the retained final partition, only for structure-only patches
//     (WCET / edge edits), and only for tasks none of whose recurrence
//     inputs changed: the task itself is untouched, no co-located task was
//     touched, and no task with a changed response time contributes
//     critical-section work anywhere (every lower-priority task reads every
//     resource-hosting processor's zeta term, so one changed global
//     contributor invalidates all lower-priority skips).
//   - Fixed-point iterates are warm-started from retained per-view fixed
//     points only for nondecreasing patches (WCET/CS/request growth without
//     sharer changes) on tasks with unchanged views: the patched recurrence
//     then dominates the base one pointwise, so the retained fixed point
//     lies between the cold start and the new least fixed point and the
//     iteration converges to exactly the same result (see rta.FixPointBatch
//     on warm starts).
//
// The returned state (nil unless the patched set is schedulable) serves
// the patched taskset as a new base, so patch chains stay incremental.
func (d *Delta) ApplyTo(sc *Scratch, patched *model.Taskset, pd *model.PatchDelta) (partition.Result, DeltaStats, *Delta) {
	if sc == nil {
		sc = NewScratch()
	}
	a := newCapturingDPCPp(sc, patched, d.pathCap, d.en)
	da := &deltaAnalyzer{a: a, base: d, pd: pd}
	all := pd.All()
	da.structureOnly = all&^(model.ChangeWCETUp|model.ChangeWCETDown|model.ChangeEdges) == 0
	da.nondecreasing = all&^(model.ChangeWCETUp|model.ChangeCSUp|model.ChangeReqUp) == 0

	// Seed path views for every task the patch left structurally untouched.
	// The retained views are heap-owned, so they survive analyzerReset and
	// can be shared by the next retained state. Their collapse plans stay
	// valid too and are carried into the next retained state.
	da.heapViews = make(map[rt.TaskID]bool, len(patched.Tasks))
	carried := make(map[rt.TaskID]*model.ViewPlan, len(patched.Tasks))
	for _, t := range patched.Tasks {
		if pd.ViewsChanged(t.ID) {
			continue
		}
		if v, ok := d.views[t.ID]; ok {
			sc.viewCache[t.ID] = v
			da.heapViews[t.ID] = true
			if pl := d.plans[t.ID]; pl != nil {
				carried[t.ID] = pl
			}
			da.stats.ViewsSeeded++
		}
	}
	// Tasks only WCET edits touched keep their collapse structure: replay
	// the retained plan under the new WCETs instead of re-enumerating. The
	// request vectors are signature-determined and shared with the retained
	// views; only lengths and non-critical WCETs are re-derived, directly
	// on the heap, so the replayed views are heap-owned like seeded ones.
	const wcetBits = model.ChangeWCETUp | model.ChangeWCETDown
	for _, t := range patched.Tasks {
		c := pd.Changed[t.ID]
		if c == 0 || c&^wcetBits != 0 {
			continue
		}
		bv, okv := d.views[t.ID]
		pl := d.plans[t.ID]
		if !okv || bv.fallback || pl == nil || pl.NumViews() != len(bv.views) {
			continue
		}
		pvs := pl.Replay(t, &sc.vs)
		if pvs == nil {
			continue
		}
		totalNonCrit := t.NonCritWCET()
		views := make([]pathView, len(pvs))
		for i := range pvs {
			views[i] = pathView{
				length:     pvs[i].Length,
				offNonCrit: totalNonCrit - pvs[i].NonCrit,
				onPath:     bv.views[i].onPath,
				offPath:    bv.views[i].offPath,
			}
		}
		sc.viewCache[t.ID] = cachedViews{views: views}
		da.heapViews[t.ID] = true
		carried[t.ID] = pl
		da.stats.ViewsReplayed++
	}

	if da.structureOnly {
		// hasGlobalCS marks tasks whose critical-section work on any global
		// resource reaches other tasks' zeta/gamma/cluster terms; a changed
		// response time of such a task invalidates every lower-priority
		// skip. Sharer sets are unchanged under structure-only patches, so
		// the patched classification equals the base one.
		da.hasGlobalCS = make(map[rt.TaskID]bool, len(patched.Tasks))
		glob := patched.GlobalResources()
		for _, t := range patched.Tasks {
			for _, q := range glob {
				if t.CSWork(q) > 0 {
					da.hasGlobalCS[t.ID] = true
					break
				}
			}
		}
	}
	da.wSet = make(map[rt.TaskID]bool)

	res := partition.Algorithm1(patched, da, d.placement)
	var next *Delta
	if res.Schedulable {
		next = retainDelta(a, res, d.placement, da.heapViews, carried)
	}
	return res, da.stats, next
}

// deltaAnalyzer is the partition.Analyzer of an incremental run: rounds
// whose candidate partition matches the retained final partition recompute
// only affected tasks; every other round runs the full analysis (with
// seeded path views).
type deltaAnalyzer struct {
	a    *DPCPp
	base *Delta
	pd   *model.PatchDelta

	structureOnly bool
	nondecreasing bool

	heapViews   map[rt.TaskID]bool
	hasGlobalCS map[rt.TaskID]bool

	// Per-pass working state (reset each WCRTs call): wSet holds the tasks
	// whose response time this pass differs from the retained one, and
	// wGlobal latches whether any of them carries global critical-section
	// work.
	wSet    map[rt.TaskID]bool
	wGlobal bool

	stats DeltaStats
}

// WCRTs implements partition.Analyzer.
func (da *deltaAnalyzer) WCRTs(p *partition.Partition) map[rt.TaskID]rt.Time {
	da.stats.Rounds++
	if (da.structureOnly || da.nondecreasing) && p.EqualAssignment(da.base.part) {
		da.stats.MatchedRounds++
		return da.wcrtsIncremental(p)
	}
	return da.a.WCRTs(p)
}

// wcrtsIncremental is the delta re-derivation entry point: one WCRTs pass
// over a partition identical to the retained one, reusing retained results
// wherever the change classification proves them unchanged.
//
//schedlint:hotpath
func (da *deltaAnalyzer) wcrtsIncremental(p *partition.Partition) map[rt.TaskID]rt.Time {
	a := da.a
	sc := a.sc
	round := sc.stageStart()
	clear(a.fix)
	clear(da.wSet)
	da.wGlobal = false
	wcrts := sc.wcrts
	clear(wcrts)
	for _, t := range a.byPrio {
		id := t.ID
		baseR, inBase := da.base.wcrt[id]
		if da.structureOnly && inBase &&
			da.pd.Changed[id] == 0 && !da.wGlobal &&
			!da.coLocatedTouched(p, t) && !da.coLocatedW(p, t) {
			// Every input of this task's recurrence equals the base final
			// round's: replaying it is the identity, so the retained value
			// is the value a full analysis would compute.
			wcrts[id] = baseR
			a.fix[id] = da.base.fix[id]
			da.stats.Reused++
			continue
		}
		// Warm-start the fixed point from the retained per-view iterates.
		// Nondecreasing mode guarantees the old least fixed point is ≤ the
		// new one (every recurrence input grows pointwise), and — because
		// sharer sets cannot change in this mode — the task's own views
		// keep their collapse-class structure and order under WCETUp/CSUp
		// (those bits only scale lengths), so the per-view index
		// correspondence with the retained iterates holds. Only ReqUp
		// reshapes signatures and breaks it.
		if da.nondecreasing && inBase && da.pd.Changed[id]&model.ChangeReqUp == 0 {
			if w := da.base.fix[id]; w != nil {
				a.warmFix = w
				da.stats.WarmStarted++
			}
		}
		r := a.taskWCRT(p, t, wcrts)
		a.warmFix = nil
		wcrts[id] = r
		da.stats.Recomputed++
		if !inBase || r != baseR {
			da.wSet[id] = true
			if da.hasGlobalCS[id] {
				da.wGlobal = true
			}
		}
	}
	sc.stageEnd(StageRound, round)
	return wcrts
}

// coLocatedTouched reports whether a patched higher-priority task shares a
// processor with t. Only higher-priority co-located tasks matter: their
// full WCET enters t's hpShared term. A lower-priority co-located task
// reaches t's bound exclusively through critical-section-derived terms —
// beta (CS lengths and ceilings), zeta and cluster terms (period, deadline
// and CS work; knownOrDeadline folds a not-yet-analyzed task in through its
// deadline, never its response time) — none of which a structure-only
// (WCET / edge) patch can change.
func (da *deltaAnalyzer) coLocatedTouched(p *partition.Partition, t *model.Task) bool {
	for _, k := range p.Procs(t.ID) {
		for _, other := range p.SharedOn(k) {
			if other != t.ID && da.pd.Changed[other] != 0 &&
				da.a.ts.Task(other).Priority.Higher(t.Priority) {
				return true
			}
		}
	}
	return false
}

// coLocatedW reports whether a higher-priority task whose response time
// changed this pass shares a processor with t (its response time enters t's
// hpShared eta term). Lower-priority members of W are invisible to t for
// the same reason as in coLocatedTouched.
func (da *deltaAnalyzer) coLocatedW(p *partition.Partition, t *model.Task) bool {
	if len(da.wSet) == 0 {
		return false
	}
	for _, k := range p.Procs(t.ID) {
		for _, other := range p.SharedOn(k) {
			if other != t.ID && da.wSet[other] &&
				da.a.ts.Task(other).Priority.Higher(t.Priority) {
				return true
			}
		}
	}
	return false
}

// retainDelta detaches the final round's capture into an immutable Delta.
// heapViews names the tasks whose cached views are already heap-owned
// (seeded from a previous state, or replayed onto its request vectors, and
// shared with it); every other task's views are copied out of the scratch
// arenas, which the next analyzerReset would recycle. carried holds
// collapse plans inherited from the previous state for tasks that did not
// re-enumerate; plans recorded by this run's own enumerations take
// precedence.
func retainDelta(a *DPCPp, res partition.Result,
	placement partition.PlacementHeuristic, heapViews map[rt.TaskID]bool,
	carried map[rt.TaskID]*model.ViewPlan) *Delta {

	ts := a.ts
	d := &Delta{
		ts:        ts,
		en:        a.en,
		pathCap:   a.pathCap,
		placement: placement,
		part:      res.Partition.Clone(),
		wcrt:      make(map[rt.TaskID]rt.Time, len(res.WCRT)),
		views:     make(map[rt.TaskID]cachedViews, len(ts.Tasks)),
		plans:     make(map[rt.TaskID]*model.ViewPlan, len(a.plans)+len(carried)),
		fix:       make(map[rt.TaskID][]rt.Time, len(a.fix)),
	}
	for id, pl := range carried {
		d.plans[id] = pl
	}
	for id, pl := range a.plans {
		d.plans[id] = pl
	}
	for id, r := range res.WCRT {
		d.wcrt[id] = r
	}
	for id, xs := range a.fix {
		d.fix[id] = xs
	}
	nr := ts.NumResources
	for _, t := range ts.Tasks {
		c, ok := a.sc.viewCache[t.ID]
		if !ok {
			continue
		}
		if heapViews[t.ID] {
			d.views[t.ID] = c
			continue
		}
		views := make([]pathView, len(c.views))
		flat := make([]int64, 2*nr*len(c.views))
		for i, v := range c.views {
			on := flat[2*i*nr : (2*i+1)*nr : (2*i+1)*nr]
			off := flat[(2*i+1)*nr : (2*i+2)*nr : (2*i+2)*nr]
			copy(on, v.onPath)
			copy(off, v.offPath)
			views[i] = pathView{length: v.length, offNonCrit: v.offNonCrit, onPath: on, offPath: off}
		}
		d.views[t.ID] = cachedViews{views: views, fallback: c.fallback}
	}
	return d
}
