package partition

import (
	"strings"
	"testing"

	"dpcpp/internal/model"
	"dpcpp/internal/rt"
)

// stubAnalyzer returns fixed WCRTs, or deadline-misses for tasks whose
// cluster is smaller than need[id].
type stubAnalyzer struct {
	need map[rt.TaskID]int
}

func (s stubAnalyzer) WCRTs(p *Partition, _ bool) map[rt.TaskID]rt.Time {
	out := make(map[rt.TaskID]rt.Time)
	for _, t := range p.TS.Tasks {
		if s.need != nil && p.NumProcs(t.ID) < s.need[t.ID] {
			out[t.ID] = rt.Infinity
		} else {
			out[t.ID] = t.Deadline / 2
		}
	}
	return out
}

// heavyTask builds a parallel task with C = factor*D spread over width
// parallel vertices (no edges), optionally using resource q.
func heavyTask(id rt.TaskID, period rt.Time, width int, factor float64,
	q rt.ResourceID, nReq int, cs rt.Time) *model.Task {

	t := model.NewTask(id, period, period)
	total := rt.Time(factor * float64(period))
	per := total / rt.Time(width)
	for i := 0; i < width; i++ {
		t.AddVertex(per)
	}
	if nReq > 0 {
		t.AddRequest(0, q, nReq, cs)
	}
	return t
}

// partitionSet builds two heavy tasks sharing l0 (l1 local to task 0) on m
// processors, plus any extra tasks.
func partitionSet(t *testing.T, m int, extra ...*model.Task) *model.Taskset {
	t.Helper()
	ts := model.NewTaskset(m, 2)
	t0 := heavyTask(0, 1000*rt.Microsecond, 10, 2.0, 0, 2, 10*rt.Microsecond)
	t0.AddRequest(1, 1, 1, 5*rt.Microsecond)
	ts.Add(t0)
	ts.Add(heavyTask(1, 2000*rt.Microsecond, 10, 3.0, 0, 4, 20*rt.Microsecond))
	for _, x := range extra {
		ts.Add(x)
	}
	if err := ts.Finalize(); err != nil {
		t.Fatal(err)
	}
	return ts
}

// lightTask is a light task with U = 0.25. partitionSet's heavy tasks need
// 3 + 4 processors federated, so on m = 8 two lights overflow the
// assignment and Algorithm1 packs both onto the one processor left.
func lightTask(id rt.TaskID) *model.Task {
	light := model.NewTask(id, 4000*rt.Microsecond, 4000*rt.Microsecond)
	light.AddVertex(1000 * rt.Microsecond)
	return light
}

func TestInitialProcs(t *testing.T) {
	ts := partitionSet(t, 16)
	// Task 0: C = 2000us, L* = 200us, D = 1000us:
	// ceil((2000-200)/(1000-200)) = ceil(2.25) = 3.
	m0, err := InitialProcs(ts.Task(0))
	if err != nil || m0 != 3 {
		t.Errorf("InitialProcs(task0) = %d, %v; want 3", m0, err)
	}
	// Task 1: C = 6000us, L* = 600us, D = 2000us:
	// ceil(5400/1400) = 4.
	m1, err := InitialProcs(ts.Task(1))
	if err != nil || m1 != 4 {
		t.Errorf("InitialProcs(task1) = %d, %v; want 4", m1, err)
	}
}

func TestInitialProcsRejectsInfeasibleChain(t *testing.T) {
	task := model.NewTask(0, 10*rt.Microsecond, 10*rt.Microsecond)
	a := task.AddVertex(6 * rt.Microsecond)
	b := task.AddVertex(6 * rt.Microsecond)
	task.AddEdge(a, b) // L* = 12 > D = 10
	if err := task.Finalize(0); err != nil {
		t.Fatal(err)
	}
	if _, err := InitialProcs(task); err == nil {
		t.Error("InitialProcs accepted task with L* >= D")
	}
}

func TestAssignAndUnassigned(t *testing.T) {
	ts := partitionSet(t, 8)
	p := New(ts)
	if got := p.Unassigned(); got != 8 {
		t.Fatalf("Unassigned = %d, want 8", got)
	}
	if !p.Assign(0, 3) {
		t.Fatal("Assign(0,3) failed")
	}
	if got := p.NumProcs(0); got != 3 {
		t.Errorf("NumProcs(0) = %d, want 3", got)
	}
	if got := p.Unassigned(); got != 5 {
		t.Errorf("Unassigned = %d, want 5", got)
	}
	if p.Assign(1, 6) {
		t.Error("Assign(1,6) succeeded with only 5 free")
	}
	if !p.Assign(1, 5) {
		t.Error("Assign(1,5) failed")
	}
	for k := 0; k < 8; k++ {
		if p.Owner(rt.ProcID(k)) < 0 {
			t.Errorf("processor %d unowned after full assignment", k)
		}
	}
}

func TestPlaceAndClearResources(t *testing.T) {
	ts := partitionSet(t, 8)
	p := New(ts)
	p.Assign(0, 4)
	p.PlaceResource(0, 2)
	if got := p.ResourceProc(0); got != 2 {
		t.Errorf("ResourceProc(0) = %d, want 2", got)
	}
	if got := p.ResourcesOn(2); len(got) != 1 || got[0] != 0 {
		t.Errorf("ResourcesOn(2) = %v", got)
	}
	// Re-placing moves the resource.
	p.PlaceResource(0, 3)
	if len(p.ResourcesOn(2)) != 0 || p.ResourceProc(0) != 3 {
		t.Error("re-placement did not move the resource")
	}
	p.ClearResources()
	if p.ResourceProc(0) != rt.NoProc || len(p.ResourcesOn(3)) != 0 {
		t.Error("ClearResources left residue")
	}
}

// TestClearResourcesKeepsEarlierViews: ClearResources empties the maps in
// place, so a clone taken before the rollback and a resource list read
// before it must not see the next round's placement.
func TestClearResourcesKeepsEarlierViews(t *testing.T) {
	ts := partitionSet(t, 8)
	p := New(ts)
	p.Assign(0, 2) // procs 0,1
	p.PlaceResource(0, 0)
	p.PlaceResource(1, 1)
	clone := p.Clone()
	on0 := p.ResourcesOn(0)
	p.ClearResources()
	p.PlaceResource(1, 0)
	p.PlaceResource(0, 1)
	if len(on0) != 1 || on0[0] != 0 {
		t.Errorf("ResourcesOn(0) read before the rollback is now %v, want [0]", on0)
	}
	if clone.ResourceProc(0) != 0 || clone.ResourceProc(1) != 1 {
		t.Errorf("clone places l0 on %d and l1 on %d, want 0 and 1",
			clone.ResourceProc(0), clone.ResourceProc(1))
	}
	if got := p.ResourcesOn(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("ResourcesOn(0) after re-placement = %v, want [1]", got)
	}
}

func TestAlgorithm1SchedulableImmediately(t *testing.T) {
	ts := partitionSet(t, 16)
	res := Algorithm1(ts, stubAnalyzer{}, WFD)
	if !res.Schedulable {
		t.Fatalf("unschedulable: %s", res.Reason)
	}
	if res.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1", res.Rounds)
	}
	// Initial federated sizes: 3 and 4.
	if res.Partition.NumProcs(0) != 3 || res.Partition.NumProcs(1) != 4 {
		t.Errorf("cluster sizes = %d, %d; want 3, 4",
			res.Partition.NumProcs(0), res.Partition.NumProcs(1))
	}
	// The global resource must be placed somewhere.
	if res.Partition.ResourceProc(0) == rt.NoProc {
		t.Error("global resource l0 unplaced")
	}
	// The local resource must not be placed.
	if res.Partition.ResourceProc(1) != rt.NoProc {
		t.Error("local resource l1 was placed on a processor")
	}
}

func TestAlgorithm1Augments(t *testing.T) {
	ts := partitionSet(t, 16)
	// Task 1 needs 6 processors (initial gives 4): two augmentation rounds.
	res := Algorithm1(ts, stubAnalyzer{need: map[rt.TaskID]int{1: 6}}, WFD)
	if !res.Schedulable {
		t.Fatalf("unschedulable: %s", res.Reason)
	}
	if res.Partition.NumProcs(1) != 6 {
		t.Errorf("task1 cluster = %d, want 6", res.Partition.NumProcs(1))
	}
	if res.Rounds != 3 {
		t.Errorf("Rounds = %d, want 3", res.Rounds)
	}
}

func TestAlgorithm1ExhaustsProcessors(t *testing.T) {
	ts := partitionSet(t, 8)
	// 3 + 4 initial leaves one spare; demanding 7 for task 0 must fail.
	res := Algorithm1(ts, stubAnalyzer{need: map[rt.TaskID]int{0: 7}}, WFD)
	if res.Schedulable {
		t.Fatal("schedulable despite impossible demand")
	}
	if !strings.Contains(res.Reason, "no processors remain") {
		t.Errorf("Reason = %q", res.Reason)
	}
}

// TestMissReasonWording pins the one wording both loops give a terminal
// deadline miss, and that a packed light task's miss is terminal: packing
// leaves no processor unassigned.
func TestMissReasonWording(t *testing.T) {
	exhaust := stubAnalyzer{need: map[rt.TaskID]int{0: 7}}
	const want = "task 0 misses deadline (R=inf > D=1ms) and no processors remain"
	for _, tc := range []struct {
		name string
		res  Result
	}{
		{"Algorithm1", Algorithm1(partitionSet(t, 8), exhaust, WFD)},
		{"IterativeFederated", IterativeFederated(partitionSet(t, 8), exhaust)},
	} {
		if tc.res.Reason != want {
			t.Errorf("%s: Reason = %q, want %q", tc.name, tc.res.Reason, want)
		}
	}

	ts := partitionSet(t, 8, lightTask(2), lightTask(3))
	res := Algorithm1(ts, stubAnalyzer{need: map[rt.TaskID]int{2: 2}}, WFD)
	if res.Schedulable || res.Rounds != 1 || len(res.WCRT) != 4 {
		t.Fatalf("light miss: sched=%v rounds=%d |WCRT|=%d, want a terminal first round with a full map",
			res.Schedulable, res.Rounds, len(res.WCRT))
	}
	if !res.Partition.IsShared(2) || res.Partition.Unassigned() != 0 {
		t.Errorf("light miss: shared=%v with %d processors unassigned, want packed with none",
			res.Partition.IsShared(2), res.Partition.Unassigned())
	}
	if want := "task 2 misses deadline (R=inf > D=4ms) and no processors remain"; res.Reason != want {
		t.Errorf("light miss: Reason = %q, want %q", res.Reason, want)
	}
}

func TestAlgorithm1TooFewProcessorsInitially(t *testing.T) {
	ts := partitionSet(t, 4) // needs 3 + 4
	res := Algorithm1(ts, stubAnalyzer{}, WFD)
	if res.Schedulable {
		t.Fatal("schedulable despite insufficient processors")
	}
	if !strings.Contains(res.Reason, "initial assignment") {
		t.Errorf("Reason = %q", res.Reason)
	}
}

func TestIterativeFederated(t *testing.T) {
	ts := partitionSet(t, 16)
	res := IterativeFederated(ts, stubAnalyzer{need: map[rt.TaskID]int{0: 5}})
	if !res.Schedulable {
		t.Fatalf("unschedulable: %s", res.Reason)
	}
	if res.Partition.NumProcs(0) != 5 {
		t.Errorf("task0 cluster = %d, want 5", res.Partition.NumProcs(0))
	}
	// No resource placement happens in the federated baselines.
	if res.Partition.ResourceProc(0) != rt.NoProc {
		t.Error("IterativeFederated placed a resource")
	}
}

// wfdSet builds three heavy tasks with distinct slack so WFD placement is
// predictable, and several global resources with distinct utilizations.
func wfdSet(t *testing.T) *model.Taskset {
	t.Helper()
	ts := model.NewTaskset(16, 3)
	// All three tasks share all three resources (making them global).
	mk := func(id rt.TaskID, period rt.Time, factor float64) *model.Task {
		task := heavyTask(id, period, 20, factor, 0, 1, rt.Microsecond)
		task.AddRequest(1, 1, 2, rt.Microsecond)
		task.AddRequest(2, 2, 3, rt.Microsecond)
		return task
	}
	ts.Add(mk(0, 1000*rt.Microsecond, 1.5))
	ts.Add(mk(1, 1000*rt.Microsecond, 2.5))
	ts.Add(mk(2, 1000*rt.Microsecond, 3.5))
	if err := ts.Finalize(); err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestWFDPlacesOnMaxSlackCluster(t *testing.T) {
	ts := wfdSet(t)
	res := Algorithm1(ts, stubAnalyzer{}, WFD)
	if !res.Schedulable {
		t.Fatalf("unschedulable: %s", res.Reason)
	}
	p := res.Partition
	// Initial clusters: ceil((C-L*)/(D-L*)) with L* = one vertex:
	// task 0: ceil(1425/925) = 2, slack 0.5;
	// task 1: ceil(2375/875) = 3, slack 0.5;
	// task 2: ceil(3325/825) = 5, slack 1.5 (max).
	// Resource utilizations are microscopic, so worst-fit sends every
	// resource to task 2's cluster — but onto distinct processors.
	procsSeen := map[rt.ProcID]bool{}
	for q := 0; q < 3; q++ {
		k := p.ResourceProc(rt.ResourceID(q))
		if k == rt.NoProc {
			t.Fatalf("resource %d unplaced", q)
		}
		if owner := p.Owner(k); owner != 2 {
			t.Errorf("resource %d placed on task %d's cluster, want max-slack task 2", q, owner)
		}
		if procsSeen[k] {
			t.Errorf("resource %d stacked on already-used processor %d", q, k)
		}
		procsSeen[k] = true
	}
}

func TestFFDPlacesOnFirstFit(t *testing.T) {
	ts := wfdSet(t)
	res := Algorithm1(ts, stubAnalyzer{}, FFD)
	if !res.Schedulable {
		t.Fatalf("unschedulable: %s", res.Reason)
	}
	p := res.Partition
	// FFD drops everything onto the first cluster while it has room; the
	// resource utilizations here are tiny, so all three land on task 0's
	// cluster.
	for q := 0; q < 3; q++ {
		k := p.ResourceProc(rt.ResourceID(q))
		if p.Owner(k) != 0 {
			t.Errorf("FFD placed resource %d on task %d's cluster, want task 0",
				q, p.Owner(k))
		}
	}
}

func TestWFDBalancesProcessorsWithinCluster(t *testing.T) {
	// One heavy task with a big cluster and many global resources shared
	// with a second task: resources on the same cluster must spread over
	// distinct processors (min-utilization processor rule).
	ts := model.NewTaskset(12, 4)
	t0 := heavyTask(0, 1000*rt.Microsecond, 20, 4.0, 0, 1, rt.Microsecond)
	for q := 1; q < 4; q++ {
		t0.AddRequest(rt.VertexID(q), rt.ResourceID(q), 1, rt.Microsecond)
	}
	ts.Add(t0)
	t1 := heavyTask(1, 500*rt.Microsecond, 20, 1.2, 0, 1, rt.Microsecond)
	for q := 1; q < 4; q++ {
		t1.AddRequest(rt.VertexID(q), rt.ResourceID(q), 1, rt.Microsecond)
	}
	ts.Add(t1)
	if err := ts.Finalize(); err != nil {
		t.Fatal(err)
	}
	res := Algorithm1(ts, stubAnalyzer{}, WFD)
	if !res.Schedulable {
		t.Fatalf("unschedulable: %s", res.Reason)
	}
	p := res.Partition
	perProc := map[rt.ProcID]int{}
	perCluster := map[rt.TaskID]int{}
	for q := 0; q < 4; q++ {
		k := p.ResourceProc(rt.ResourceID(q))
		perProc[k]++
		perCluster[p.Owner(k)]++
	}
	for k, c := range perProc {
		// Each cluster receiving r resources over >= r processors must
		// never stack two resources on one processor.
		if c > 1 && p.NumProcs(p.Owner(k)) >= perCluster[p.Owner(k)] {
			t.Errorf("processor %d received %d resources despite free siblings", k, c)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	ts := partitionSet(t, 8)
	p := New(ts)
	p.Assign(0, 2)
	p.PlaceResource(0, 0)
	c := p.Clone()
	c.Assign(1, 2)
	c.PlaceResource(0, 1)
	if p.NumProcs(1) != 0 {
		t.Error("Clone shares cluster state")
	}
	if p.ResourceProc(0) != 0 {
		t.Error("Clone shares resource state")
	}
}

// untilMissStub is stubAnalyzer honouring untilMiss the way a real
// analyzer may: it walks priorities and stops after the first miss. It
// counts the calls whose flag differs from what the loop should pass.
type untilMissStub struct {
	need  map[rt.TaskID]int
	calls int
	wrong int
}

func (s *untilMissStub) WCRTs(p *Partition, untilMiss bool) map[rt.TaskID]rt.Time {
	s.calls++
	if untilMiss != (p.Unassigned() > 0) {
		s.wrong++
	}
	out := make(map[rt.TaskID]rt.Time)
	for _, t := range p.TS.ByPriorityDesc() {
		r := t.Deadline / 2
		if p.NumProcs(t.ID) < s.need[t.ID] {
			r = rt.Infinity
		}
		out[t.ID] = r
		if untilMiss && r > t.Deadline {
			break
		}
	}
	return out
}

// TestLoopsPassUntilMiss checks that the partitioning loops let a round
// stop at the first miss exactly while processors remain unassigned, and
// that every Result carrying a WCRT map has an entry for every task: a
// terminal or miss-free round is complete.
func TestLoopsPassUntilMiss(t *testing.T) {
	algorithm1 := func(ts *model.Taskset, a Analyzer) Result { return Algorithm1(ts, a, WFD) }
	for _, tc := range []struct {
		name   string
		m      int
		need   map[rt.TaskID]int
		lights int // light tasks to add; two overflow m = 8
		sched  bool
		rounds int
		run    func(*model.Taskset, Analyzer) Result
	}{
		// Task 0 has the higher priority, so its misses truncate the map.
		{"Algorithm1/augments", 16, map[rt.TaskID]int{0: 5, 1: 6}, 0, true, 5, algorithm1},
		{"Algorithm1/exhausts", 8, map[rt.TaskID]int{0: 7}, 0, false, 2, algorithm1},
		{"IterativeFederated/augments", 16, map[rt.TaskID]int{0: 5, 1: 6}, 0, true, 5,
			IterativeFederated},
		{"IterativeFederated/exhausts", 8, map[rt.TaskID]int{0: 7}, 0, false, 2,
			IterativeFederated},
		// The AlgorithmMixed rows keep the names of the light-task
		// partitioner that Algorithm1 absorbed. One light task fits the
		// federated assignment, so it gets a processor of its own and the
		// loop augments as on a heavy-only set: on m = 8 none is left, and
		// the first round is full and terminal.
		{"AlgorithmMixed/augments", 16, map[rt.TaskID]int{0: 5, 1: 6}, 1, true, 5, algorithm1},
		{"AlgorithmMixed/exhausts", 8, map[rt.TaskID]int{0: 7}, 1, false, 1, algorithm1},
		// Two lights overflow m = 8 and are packed. Packing leaves no
		// processor unassigned, so the one round is a full pass.
		{"Algorithm1/light", 8, nil, 2, true, 1, algorithm1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var extra []*model.Task
			for i := 0; i < tc.lights; i++ {
				extra = append(extra, lightTask(rt.TaskID(2+i)))
			}
			ts := partitionSet(t, tc.m, extra...)
			s := &untilMissStub{need: tc.need}
			res := tc.run(ts, s)
			if res.Schedulable != tc.sched {
				t.Fatalf("Schedulable = %v, want %v (reason %q)", res.Schedulable, tc.sched, res.Reason)
			}
			for i := 0; i < tc.lights; i++ {
				if id := rt.TaskID(2 + i); res.Partition.IsShared(id) != (tc.lights > 1) {
					t.Errorf("light task %d: shared = %v, want %v", id, res.Partition.IsShared(id), tc.lights > 1)
				}
			}
			if tc.lights > 1 && res.Partition.Unassigned() != 0 {
				t.Errorf("%d processors unassigned after packing, want 0", res.Partition.Unassigned())
			}
			if s.calls != res.Rounds || res.Rounds != tc.rounds {
				t.Errorf("%d WCRTs calls over %d rounds, want %d of each", s.calls, res.Rounds, tc.rounds)
			}
			if s.wrong != 0 {
				t.Errorf("%d of %d rounds passed the wrong untilMiss", s.wrong, s.calls)
			}
			if res.WCRT == nil {
				t.Fatal("Result carries no WCRT map")
			}
			for _, tk := range ts.Tasks {
				if _, ok := res.WCRT[tk.ID]; !ok {
					t.Errorf("Result WCRT map lacks task %d", tk.ID)
				}
			}
		})
	}
}
