// Package partition implements the task and resource partitioning of the
// DPCP-p paper (Sec. V): federated processor assignment with iterative
// augmentation and rollback (Algorithm 1), and worst-fit-decreasing
// placement of global resources onto processors by utilization slack
// (Algorithm 2). A first-fit-decreasing variant is provided as an ablation.
//
// One augmentation loop serves every method. Algorithm1 runs it with
// resource placement (DPCP-p), IterativeFederated without (the SPIN-SON,
// LPP and FED-FP baselines). Each round analyzes the partition and grows
// the cluster of the highest-priority task that misses its deadline by
// one processor, until no task misses or the miss is terminal. When the
// federated clusters do not fit, Algorithm1 packs the light tasks onto the
// processors the heavy clusters leave, to run sequentially (Sec. VI).
//
//schedlint:deterministic
package partition

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"dpcpp/internal/model"
	"dpcpp/internal/rt"
)

// Partition records which processors each task owns (its cluster) and on
// which processor each global resource is served by agents. Local
// resources are never placed (they execute within the owning task).
type Partition struct {
	TS *model.Taskset

	procs   map[rt.TaskID][]rt.ProcID   // cluster of each task
	owner   []rt.TaskID                 // owning (heavy) task per processor
	resProc map[rt.ResourceID]rt.ProcID // placement of global resources
	resOn   map[rt.ProcID][]rt.ResourceID
	shared  map[rt.ProcID][]rt.TaskID // light tasks sharing a processor (Sec. VI)
}

// New returns an empty partition for the taskset.
func New(ts *model.Taskset) *Partition {
	p := &Partition{
		TS:      ts,
		procs:   make(map[rt.TaskID][]rt.ProcID),
		owner:   make([]rt.TaskID, ts.NumProcs),
		resProc: make(map[rt.ResourceID]rt.ProcID),
		resOn:   make(map[rt.ProcID][]rt.ResourceID),
		shared:  make(map[rt.ProcID][]rt.TaskID),
	}
	for k := range p.owner {
		p.owner[k] = -1
	}
	return p
}

// Assign grants count additional processors to the task, taking the lowest
// unassigned processor IDs. It returns false, assigning none, when not
// enough processors remain.
func (p *Partition) Assign(id rt.TaskID, count int) bool {
	if p.Unassigned() < count {
		return false
	}
	for k, o := range p.owner {
		if count > 0 && o < 0 && len(p.shared[rt.ProcID(k)]) == 0 {
			p.owner[k] = id
			p.procs[id] = append(p.procs[id], rt.ProcID(k))
			count--
		}
	}
	return true
}

// Unassigned returns the number of processors not assigned to any task,
// heavy or light.
func (p *Partition) Unassigned() int {
	n := 0
	for k, o := range p.owner {
		if o < 0 && len(p.shared[rt.ProcID(k)]) == 0 {
			n++
		}
	}
	return n
}

// Procs returns the cluster of the task.
func (p *Partition) Procs(id rt.TaskID) []rt.ProcID { return p.procs[id] }

// NumProcs returns m_i, the cluster size of the task.
func (p *Partition) NumProcs(id rt.TaskID) int { return len(p.procs[id]) }

// Owner returns the heavy task owning processor k, or -1.
func (p *Partition) Owner(k rt.ProcID) rt.TaskID { return p.owner[k] }

// AssignShared places a light task on processor k, which may already host
// other light tasks (Sec. VI: light tasks are treated as sequential tasks
// on the remaining processors). The processor must not belong to a heavy
// task's cluster.
func (p *Partition) AssignShared(id rt.TaskID, k rt.ProcID) error {
	if p.owner[k] >= 0 {
		return fmt.Errorf("partition: processor %d belongs to heavy task %d", k, p.owner[k])
	}
	for _, other := range p.shared[k] {
		if other == id {
			return fmt.Errorf("partition: task %d already on processor %d", id, k)
		}
	}
	p.shared[k] = append(p.shared[k], id)
	p.procs[id] = append(p.procs[id], k)
	return nil
}

// SharedOn returns the light tasks sharing processor k.
func (p *Partition) SharedOn(k rt.ProcID) []rt.TaskID { return p.shared[k] }

// IsShared reports whether the task was placed with AssignShared, i.e.
// runs sequentially on a (possibly shared) processor.
func (p *Partition) IsShared(id rt.TaskID) bool {
	for _, ks := range p.procs[id] {
		for _, other := range p.shared[ks] {
			if other == id {
				return true
			}
		}
	}
	return false
}

// PlaceResource assigns global resource q to processor k.
func (p *Partition) PlaceResource(q rt.ResourceID, k rt.ProcID) {
	if old, ok := p.resProc[q]; ok {
		p.removeResOn(old, q)
	}
	p.resProc[q] = k
	p.resOn[k] = append(p.resOn[k], q)
}

func (p *Partition) removeResOn(k rt.ProcID, q rt.ResourceID) {
	lst := p.resOn[k]
	for i, x := range lst {
		if x == q {
			p.resOn[k] = append(lst[:i], lst[i+1:]...)
			return
		}
	}
}

// ClearResources removes every resource placement (Algorithm 1's rollback).
// It empties the maps in place: no clone or Result shares them, and the
// next placement appends to fresh per-processor lists, so a list returned
// before the rollback is never written again.
func (p *Partition) ClearResources() {
	clear(p.resProc)
	clear(p.resOn)
}

// ResourceProc returns the processor serving global resource q, or NoProc
// when q is local or unplaced.
func (p *Partition) ResourceProc(q rt.ResourceID) rt.ProcID {
	if k, ok := p.resProc[q]; ok {
		return k
	}
	return rt.NoProc
}

// ResourcesOn returns the global resources placed on processor k
// (the paper's Phi(p_k)).
func (p *Partition) ResourcesOn(k rt.ProcID) []rt.ResourceID { return p.resOn[k] }

// CloneFor returns a deep copy of the partition bound to another taskset,
// which must have the same processor count and contain every task ID the
// partition mentions. The audit's WCET-scaling check uses it to evaluate an
// analyzer on an identical partition of a perturbed taskset (the partition
// only names task, processor and resource IDs, all of which a structure-
// preserving perturbation keeps).
func (p *Partition) CloneFor(ts *model.Taskset) (*Partition, error) {
	if ts.NumProcs != p.TS.NumProcs {
		return nil, fmt.Errorf("partition: CloneFor needs %d processors, taskset has %d",
			p.TS.NumProcs, ts.NumProcs)
	}
	if ts.NumResources != p.TS.NumResources {
		return nil, fmt.Errorf("partition: CloneFor needs %d resources, taskset has %d",
			p.TS.NumResources, ts.NumResources)
	}
	ids := make(map[rt.TaskID]bool, len(ts.Tasks))
	for _, t := range ts.Tasks {
		ids[t.ID] = true
	}
	for id := range p.procs {
		if !ids[id] {
			return nil, fmt.Errorf("partition: CloneFor target lacks task %d", id)
		}
	}
	c := p.Clone()
	c.TS = ts
	return c, nil
}

// Clone returns a deep copy.
func (p *Partition) Clone() *Partition {
	c := New(p.TS)
	copy(c.owner, p.owner)
	for id, ps := range p.procs {
		c.procs[id] = append([]rt.ProcID(nil), ps...)
	}
	for q, k := range p.resProc {
		c.resProc[q] = k
		c.resOn[k] = append(c.resOn[k], q)
	}
	for k, ids := range p.shared {
		c.shared[k] = append([]rt.TaskID(nil), ids...)
	}
	return c
}

// InitialProcs returns the federated starting cluster size of Sec. V:
// ceil((C_i - L*_i)/(D_i - L*_i)), at least 1.
func InitialProcs(t *model.Task) (int, error) {
	num := t.WCET() - t.LongestPath()
	den := t.Deadline - t.LongestPath()
	if den <= 0 {
		return 0, fmt.Errorf("partition: task %d has L*=%s >= D=%s and can never meet its deadline",
			t.ID, rt.FormatTime(t.LongestPath()), rt.FormatTime(t.Deadline))
	}
	m := int(rt.CeilDiv(num, den))
	if m < 1 {
		m = 1
	}
	return m, nil
}

// Analyzer computes the worst-case response time of each task under a
// candidate partition; tasks must be analyzable in any order (the analysis
// itself walks priorities internally). Implemented by internal/analysis.
type Analyzer interface {
	// WCRTs returns a response-time bound per task. A bound above the
	// task's deadline (or rt.Infinity) marks the task unschedulable under
	// this partition.
	//
	// With untilMiss false the map holds every task. With untilMiss true
	// the analyzer walks ts.ByPriorityDesc() and may return right after the
	// first task whose bound exceeds its deadline: the map then holds that
	// task and every task of higher priority, each with exactly the value a
	// full pass computes. A pass with no miss is complete either way.
	//
	// The partitioning loop sets untilMiss exactly when processors remain
	// unassigned, which a partition that packs light tasks never has. Any
	// miss then only selects the cluster to grow, and the map is discarded.
	//
	// The returned map may be analyzer-owned scratch, valid only until the
	// next WCRTs call on the same analyzer. The partitioning loop respects
	// that lifetime and copies the map into any Result it returns.
	WCRTs(p *Partition, untilMiss bool) map[rt.TaskID]rt.Time
}

// copyWCRTs detaches a WCRT map from its (possibly scratch-owned) analyzer
// before it escapes into a long-lived Result.
func copyWCRTs(wcrts map[rt.TaskID]rt.Time) map[rt.TaskID]rt.Time {
	if wcrts == nil {
		return nil
	}
	out := make(map[rt.TaskID]rt.Time, len(wcrts))
	for id, r := range wcrts {
		out[id] = r
	}
	return out
}

// Result is the outcome of a partitioning run.
type Result struct {
	Schedulable bool
	Partition   *Partition
	WCRT        map[rt.TaskID]rt.Time
	Rounds      int    // outer iterations of Algorithm 1
	Reason      string // why the set was declared unschedulable
}

// PlacementHeuristic selects the resource-placement strategy.
type PlacementHeuristic int

const (
	// WFD is Algorithm 2: worst-fit decreasing by cluster utilization
	// slack, min-utilization processor within the cluster.
	WFD PlacementHeuristic = iota
	// FFD is the first-fit-decreasing ablation: resources go to the first
	// cluster (by index) with room, min-utilization processor within it.
	FFD
)

// Algorithm1 runs the paper's task-and-resource partitioning: initial
// federated assignment, worst-fit-decreasing resource placement, and
// schedulability-test-driven processor augmentation with rollback, with
// the Sec. VI light-task packing when the federated clusters do not fit.
func Algorithm1(ts *model.Taskset, a Analyzer, heuristic PlacementHeuristic) Result {
	return augment(ts, a, true, heuristic)
}

// IterativeFederated is Algorithm1 without resource placement or packing;
// it drives the SPIN, LPP and FED-FP baselines, whose requests execute
// locally and whose analyses have no shared-task term.
func IterativeFederated(ts *model.Taskset, a Analyzer) Result {
	return augment(ts, a, false, WFD)
}

// augment is the one augmentation loop behind Algorithm1 and
// IterativeFederated. Every task gets InitialProcs processors (see
// assignInitial). Each round then clears and re-places the global
// resources when place is set (DPCP-p), runs the analyzer, and scans the
// WCRTs in priority order for the first miss. While processors remain, a
// miss grows that task's cluster by one processor and the next round rolls
// the resources back (paper lines 13-14); otherwise the miss is terminal.
//
// A round asks the analyzer to stop at the first miss (untilMiss) exactly
// when processors remain: only then is every miss an augmentation, whose
// map is discarded. A terminal round and a round without a miss see a
// complete map, so every Result is the same as with full passes.
func augment(ts *model.Taskset, a Analyzer, place bool, heuristic PlacementHeuristic) Result {
	p, reason := assignInitial(ts, place, false)
	if reason != "" {
		return Result{Partition: p, Reason: reason}
	}

	var pl *placer
	if place {
		pl = newPlacer(ts)
	}
	byPrio := ts.ByPriorityDesc()
	rounds := 0
	for {
		rounds++
		if rounds > 4*ts.NumProcs+8 {
			// Algorithm 1 terminates within m-2n rounds on heavy-only
			// sets; this guard catches degenerate inputs.
			return Result{Partition: p, Rounds: rounds, Reason: "round limit exceeded"}
		}
		if place {
			p.ClearResources()
			if !pl.placeResources(p, heuristic) {
				return Result{Partition: p, Rounds: rounds,
					Reason: "infeasible global resource allocation"}
			}
		}
		free := p.Unassigned() > 0
		wcrts := a.WCRTs(p, free)
		var miss *model.Task
		for _, t := range byPrio {
			if wcrts[t.ID] > t.Deadline {
				miss = t
				break
			}
		}
		if miss == nil {
			return Result{Schedulable: true, Partition: p, WCRT: copyWCRTs(wcrts), Rounds: rounds}
		}
		if free {
			p.Assign(miss.ID, 1)
			continue
		}
		return Result{Partition: p, WCRT: copyWCRTs(wcrts), Rounds: rounds,
			Reason: missReason(miss, wcrts[miss.ID])}
	}
}

// assignInitial gives every task its InitialProcs processors and returns
// why it could not, or "". With pack, the light tasks are set aside and
// packLightTasks packs them onto the processors the heavy tasks leave
// (Sec. VI). DPCP-p (place) starts over with pack when the processors run
// out and the set has a light task. Federated, each light task needs one
// processor, so the lights then outnumber the processors left over and
// worst-fit puts one on each: a packed partition leaves no processor
// unassigned, and no packed task is ever augmented.
func assignInitial(ts *model.Taskset, place, pack bool) (*Partition, string) {
	p := New(ts)
	var lights []*model.Task
	for _, t := range ts.Tasks {
		if pack && !t.Heavy() {
			lights = append(lights, t)
			continue
		}
		mi, err := InitialProcs(t)
		if err != nil {
			return p, err.Error()
		}
		if !p.Assign(t.ID, mi) {
			if place && !pack && slices.ContainsFunc(ts.Tasks, func(u *model.Task) bool { return !u.Heavy() }) {
				return assignInitial(ts, place, true)
			}
			return p, fmt.Sprintf("not enough processors for initial assignment of task %d", t.ID)
		}
	}
	if !pack {
		return p, ""
	}
	return p, packLightTasks(p, lights)
}

// missReason words a terminal deadline miss, "task %d misses deadline
// (R=%s > D=%s) and no processors remain", in one allocation:
// unschedulable verdicts are common in a sweep.
func missReason(t *model.Task, r rt.Time) string {
	var buf [128]byte
	b := strconv.AppendInt(append(buf[:0], "task "...), int64(t.ID), 10)
	b = rt.AppendTime(append(b, " misses deadline (R="...), r)
	b = rt.AppendTime(append(b, " > D="...), t.Deadline)
	return string(append(b, ") and no processors remain"...))
}

// packLightTasks places light tasks worst-fit decreasing by utilization on
// the processors no heavy cluster owns; a processor may host several
// lights while its total utilization stays at or below 1. It returns why
// the packing failed, or "".
func packLightTasks(p *Partition, lights []*model.Task) string {
	var pool []rt.ProcID
	for k := 0; k < p.TS.NumProcs; k++ {
		if p.Owner(rt.ProcID(k)) < 0 {
			pool = append(pool, rt.ProcID(k))
		}
	}
	if len(pool) == 0 {
		return "no processors left for light tasks"
	}
	sort.SliceStable(lights, func(a, b int) bool {
		ua, ub := lights[a].Utilization(), lights[b].Utilization()
		if ua != ub {
			return ua > ub
		}
		return lights[a].ID < lights[b].ID
	})
	util := make(map[rt.ProcID]float64, len(pool))
	for _, t := range lights {
		best := rt.NoProc
		for _, k := range pool {
			if best == rt.NoProc || util[k] < util[best] {
				best = k
			}
		}
		if util[best]+t.Utilization() > 1.0+1e-9 {
			return fmt.Sprintf("light task %d does not fit on any remaining processor", t.ID)
		}
		if err := p.AssignShared(t.ID, best); err != nil {
			return err.Error()
		}
		util[best] += t.Utilization()
	}
	return ""
}

// placer holds Algorithm 2's state for one augment call: the global
// resources in placement order, which depends only on the taskset, and
// cluster bookkeeping that every round rebuilds in place.
type placer struct {
	order    []rankedResource
	clusters []cluster
	procUtil []float64 // per-processor resource utilization, cluster by cluster
}

// rankedResource is a global resource and its utilization u^Phi_q.
type rankedResource struct {
	q rt.ResourceID
	u float64
}

// cluster is one placement target: a task's processors, its capacity and
// its utilization including the resources placed so far. The resource
// utilization of procs[i] is placer.procUtil[at+i].
type cluster struct {
	procs          []rt.ProcID
	capacity, util float64
	at             int
}

// newPlacer orders the global resources by decreasing utilization, ties by
// ID (Algorithm 2 line 1).
func newPlacer(ts *model.Taskset) *placer {
	globals := ts.GlobalResources()
	order := make([]rankedResource, len(globals))
	for i, q := range globals {
		order[i] = rankedResource{q: q, u: ts.ResourceUtilization(q)}
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].u != order[b].u {
			return order[a].u > order[b].u
		}
		return order[a].q < order[b].q
	})
	return &placer{order: order}
}

// addCluster appends a cluster over procs with the given capacity and
// utilization, its processors holding no resources yet.
func (pl *placer) addCluster(procs []rt.ProcID, capacity, util float64) {
	pl.clusters = append(pl.clusters, cluster{procs: procs, capacity: capacity, util: util, at: len(pl.procUtil)})
	for range procs {
		pl.procUtil = append(pl.procUtil, 0)
	}
}

// placeResources runs Algorithm 2 (WFD) or the FFD ablation. It returns
// false when some resource cannot fit in any cluster without exceeding its
// capacity.
func (pl *placer) placeResources(p *Partition, heuristic PlacementHeuristic) bool {
	ts := p.TS
	pl.clusters, pl.procUtil = pl.clusters[:0], pl.procUtil[:0]
	for _, t := range ts.Tasks {
		procs := p.Procs(t.ID)
		if len(procs) == 0 || p.IsShared(t.ID) {
			continue
		}
		pl.addCluster(procs, float64(len(procs)), t.Utilization())
	}
	if len(pl.clusters) == 0 {
		// All-light systems: fall back to per-processor pseudo-clusters so
		// the original DPCP placement still has somewhere to put agents.
		for k := 0; k < ts.NumProcs; k++ {
			ids := p.SharedOn(rt.ProcID(k))
			if len(ids) == 0 {
				continue
			}
			util := 0.0
			for _, id := range ids {
				util += ts.Task(id).Utilization()
			}
			pl.addCluster(p.Procs(ids[0]), 1, util)
		}
	}
	if len(pl.clusters) == 0 {
		return len(pl.order) == 0
	}

	for _, r := range pl.order {
		var chosen *cluster
		switch heuristic {
		case WFD:
			for i := range pl.clusters {
				c := &pl.clusters[i]
				if chosen == nil || c.capacity-c.util > chosen.capacity-chosen.util {
					chosen = c
				}
			}
		case FFD:
			for i := range pl.clusters {
				if c := &pl.clusters[i]; c.util+r.u <= c.capacity {
					chosen = c
					break
				}
			}
			if chosen == nil {
				chosen = &pl.clusters[0]
			}
		}
		if chosen.util+r.u > chosen.capacity {
			return false
		}
		// Min resource-utilization processor within the cluster
		// (Algorithm 2 line 9), ties by processor ID for determinism.
		util := pl.procUtil[chosen.at : chosen.at+len(chosen.procs)]
		best := 0
		for i, k := range chosen.procs {
			if c2less(util[i], k, util[best], chosen.procs[best]) {
				best = i
			}
		}
		p.PlaceResource(r.q, chosen.procs[best])
		util[best] += r.u
		chosen.util += r.u
	}
	return true
}

func c2less(u1 float64, k1 rt.ProcID, u2 float64, k2 rt.ProcID) bool {
	if u1 != u2 {
		return u1 < u2
	}
	return k1 < k2
}
