// Package partition implements the task and resource partitioning of the
// DPCP-p paper (Sec. V): federated processor assignment with iterative
// augmentation and rollback (Algorithm 1), and worst-fit-decreasing
// placement of global resources onto processors by utilization slack
// (Algorithm 2). A first-fit-decreasing variant is provided as an ablation.
//
// One augmentation loop serves every method. Algorithm1 runs it with
// resource placement (DPCP-p), IterativeFederated without (the SPIN-SON,
// LPP and FED-FP baselines), and AlgorithmMixed with placement and the
// Sec. VI light-task packing. Each round analyzes the partition and grows
// the cluster of the highest-priority task that misses its deadline by
// one processor, until no task misses or the miss is terminal.
//
//schedlint:deterministic
package partition

import (
	"fmt"
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
// unassigned processor IDs. It returns false when not enough processors
// remain.
func (p *Partition) Assign(id rt.TaskID, count int) bool {
	if count <= 0 {
		return true
	}
	n := 0
	for k, o := range p.owner {
		if o < 0 && len(p.shared[rt.ProcID(k)]) == 0 {
			n++
			if n == count {
				break
			}
		}
	}
	if n < count {
		return false
	}
	n = 0
	for k, o := range p.owner {
		if o < 0 && len(p.shared[rt.ProcID(k)]) == 0 {
			p.owner[k] = id
			p.procs[id] = append(p.procs[id], rt.ProcID(k))
			n++
			if n == count {
				return true
			}
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
func (p *Partition) ClearResources() {
	p.resProc = make(map[rt.ResourceID]rt.ProcID)
	p.resOn = make(map[rt.ProcID][]rt.ResourceID)
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

// CoLocated returns the global resources on the same processor as q,
// including q itself (the paper's Phi^p(l_q)).
func (p *Partition) CoLocated(q rt.ResourceID) []rt.ResourceID {
	k := p.ResourceProc(q)
	if k == rt.NoProc {
		return nil
	}
	return p.resOn[k]
}

// ClusterResources returns the global resources placed on the cluster of
// the task (the paper's Phi^p(tau_i)).
func (p *Partition) ClusterResources(id rt.TaskID) []rt.ResourceID {
	return p.AppendClusterResources(nil, id)
}

// AppendClusterResources appends the cluster's global resources to dst and
// returns the extended slice; analysis hot paths pass a reused buffer to
// stay allocation-free. Every resource lives on at most one processor, so
// the result never exceeds the taskset's resource count.
func (p *Partition) AppendClusterResources(dst []rt.ResourceID, id rt.TaskID) []rt.ResourceID {
	for _, k := range p.procs[id] {
		dst = append(dst, p.resOn[k]...)
	}
	return dst
}

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
	// unassigned and no light task is packed. Any miss then only selects
	// the cluster to grow, and the map is discarded.
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
// schedulability-test-driven processor augmentation with rollback.
func Algorithm1(ts *model.Taskset, a Analyzer, heuristic PlacementHeuristic) Result {
	return augment(ts, a, true, heuristic, false)
}

// IterativeFederated is Algorithm1 without resource placement; it drives
// the SPIN, LPP and FED-FP baselines, whose requests execute locally.
func IterativeFederated(ts *model.Taskset, a Analyzer) Result {
	return augment(ts, a, false, WFD, false)
}

// AlgorithmMixed extends Algorithm 1 to sets containing light tasks
// (Sec. VI): heavy tasks receive federated clusters exactly as in
// Algorithm 1, light tasks are packed worst-fit-decreasing by utilization
// onto the remaining processors (several lights may share one processor),
// and global resources are placed on the heavy clusters by Algorithm 2. A
// failing light task is terminal: the paper leaves optimal light handling
// open, and this implementation does not re-pack lights. On a set without
// light tasks it is Algorithm1.
func AlgorithmMixed(ts *model.Taskset, a Analyzer, heuristic PlacementHeuristic) Result {
	return augment(ts, a, true, heuristic, true)
}

// augment is the one augmentation loop behind Algorithm1,
// IterativeFederated and AlgorithmMixed. Every task gets InitialProcs
// processors, except that with packLights the light tasks are set aside
// and packed onto the processors left over (Sec. VI). Each round then
// clears and re-places the global resources when place is set (DPCP-p),
// runs the analyzer, and scans the WCRTs in priority order for the first
// miss. A miss is terminal when the task is shared or no processors
// remain; otherwise that task's cluster grows by one processor and the
// next round rolls the resources back (paper lines 13-14).
//
// A round asks the analyzer to stop at the first miss (untilMiss) exactly
// when processors remain and no light task is packed: only then is every
// miss an augmentation, whose map is discarded. A terminal round and a
// round without a miss see a complete map, so every Result is the same as
// with full passes.
func augment(ts *model.Taskset, a Analyzer, place bool, heuristic PlacementHeuristic, packLights bool) Result {
	p := New(ts)
	var lights []*model.Task
	for _, t := range ts.Tasks {
		if packLights && !t.Heavy() {
			lights = append(lights, t)
			continue
		}
		mi, err := InitialProcs(t)
		if err != nil {
			return Result{Partition: p, Reason: err.Error()}
		}
		if !p.Assign(t.ID, mi) {
			return Result{Partition: p, Reason: fmt.Sprintf(
				"not enough processors for initial assignment of task %d", t.ID)}
		}
	}
	if len(lights) > 0 {
		if reason := packLightTasks(p, lights); reason != "" {
			return Result{Partition: p, Reason: reason}
		}
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
			if !placeResources(p, heuristic) {
				return Result{Partition: p, Rounds: rounds,
					Reason: "infeasible global resource allocation"}
			}
		}
		free := p.Unassigned() > 0
		wcrts := a.WCRTs(p, free && len(lights) == 0)
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
		if free && !p.IsShared(miss.ID) {
			p.Assign(miss.ID, 1)
			continue
		}
		return Result{Partition: p, WCRT: copyWCRTs(wcrts), Rounds: rounds,
			Reason: missReason(miss, wcrts[miss.ID], free)}
	}
}

// missReason words a terminal deadline miss, "task %d misses deadline
// (R=%s > D=%s)" plus " and no processors remain" when none do, in one
// allocation: unschedulable verdicts are common in a sweep.
func missReason(t *model.Task, r rt.Time, free bool) string {
	var buf [128]byte
	b := strconv.AppendInt(append(buf[:0], "task "...), int64(t.ID), 10)
	b = rt.AppendTime(append(b, " misses deadline (R="...), r)
	b = rt.AppendTime(append(b, " > D="...), t.Deadline)
	b = append(b, ')')
	if !free {
		b = append(b, " and no processors remain"...)
	}
	return string(b)
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

// placeResources runs Algorithm 2 (WFD) or the FFD ablation. It returns
// false when some resource cannot fit in any cluster without exceeding its
// capacity.
func placeResources(p *Partition, heuristic PlacementHeuristic) bool {
	ts := p.TS
	globals := ts.GlobalResources()
	sort.SliceStable(globals, func(a, b int) bool {
		ua, ub := ts.ResourceUtilization(globals[a]), ts.ResourceUtilization(globals[b])
		if ua != ub {
			return ua > ub
		}
		return globals[a] < globals[b]
	})

	type cluster struct {
		task     *model.Task
		capacity float64
		util     float64
		procUtil map[rt.ProcID]float64
	}
	var clusters []*cluster
	for _, t := range ts.Tasks {
		procs := p.Procs(t.ID)
		if len(procs) == 0 || p.IsShared(t.ID) {
			continue
		}
		c := &cluster{task: t, capacity: float64(len(procs)), util: t.Utilization(),
			procUtil: make(map[rt.ProcID]float64, len(procs))}
		for _, k := range procs {
			c.procUtil[k] = 0
		}
		clusters = append(clusters, c)
	}
	if len(clusters) == 0 {
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
			c := &cluster{task: ts.Task(ids[0]), capacity: 1, util: util,
				procUtil: map[rt.ProcID]float64{rt.ProcID(k): 0}}
			clusters = append(clusters, c)
		}
	}
	if len(clusters) == 0 {
		return len(globals) == 0
	}

	for _, q := range globals {
		uq := ts.ResourceUtilization(q)
		var chosen *cluster
		switch heuristic {
		case WFD:
			for _, c := range clusters {
				if chosen == nil || c.capacity-c.util > chosen.capacity-chosen.util {
					chosen = c
				}
			}
		case FFD:
			for _, c := range clusters {
				if c.util+uq <= c.capacity {
					chosen = c
					break
				}
			}
			if chosen == nil {
				chosen = clusters[0]
			}
		}
		if chosen.util+uq > chosen.capacity {
			return false
		}
		// Min resource-utilization processor within the cluster
		// (Algorithm 2 line 9), ties by processor ID for determinism.
		var bestProc rt.ProcID = rt.NoProc
		for _, k := range p.Procs(chosen.task.ID) {
			if bestProc == rt.NoProc || c2less(chosen.procUtil[k], k, chosen.procUtil[bestProc], bestProc) {
				bestProc = k
			}
		}
		p.PlaceResource(q, bestProc)
		chosen.procUtil[bestProc] += uq
		chosen.util += uq
	}
	return true
}

func c2less(u1 float64, k1 rt.ProcID, u2 float64, k2 rt.ProcID) bool {
	if u1 != u2 {
		return u1 < u2
	}
	return k1 < k2
}
