package analysis

import (
	"strings"
	"testing"

	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
)

// lightSet builds the hand-computed all-light example of Sec. VI:
//
//	C2 (prio 3): C=5us,  T=D=50us, no resources.
//	A  (prio 2): C=10us, T=D=100us, one request to l0 (CS 2us).
//	B  (prio 1): C=20us, T=D=200us, one request to l0 (CS 3us).
//
// On m=2 processors, worst-fit packing puts A and C2 on p0 and B on p1;
// l0 is global and lands on the max-slack pseudo-cluster p1.
//
// Hand-derived DPCP-p bounds:
//
//	R_C2 = 5us                         (alone at top priority)
//	R_A  = 10 + min(eps=3, zeta) + eta_C2*5 = 18us
//	R_B  = 20 + min(eps=2, zeta) + I_A=2    = 24us
func lightSet(t *testing.T) *model.Taskset {
	t.Helper()
	ts := model.NewTaskset(2, 1)
	a := model.NewTask(0, 100*rt.Microsecond, 100*rt.Microsecond)
	va := a.AddVertex(10 * rt.Microsecond)
	a.AddRequest(va, 0, 1, 2*rt.Microsecond)
	ts.Add(a)
	b := model.NewTask(1, 200*rt.Microsecond, 200*rt.Microsecond)
	vb := b.AddVertex(20 * rt.Microsecond)
	b.AddRequest(vb, 0, 1, 3*rt.Microsecond)
	ts.Add(b)
	c2 := model.NewTask(2, 50*rt.Microsecond, 50*rt.Microsecond)
	c2.AddVertex(5 * rt.Microsecond)
	ts.Add(c2)
	if err := ts.Finalize(); err != nil {
		t.Fatal(err)
	}
	return ts
}

// The TestAlgorithmMixed* tests run Algorithm1 on sets mixing light tasks
// with heavy ones (or all light) whose federated assignment does not fit,
// so it packs the lights by Sec. VI.

func TestAlgorithmMixedAllLight(t *testing.T) {
	ts := lightSet(t)
	res := partition.Algorithm1(ts, NewDPCPp(ts, DefaultPathCap, false), partition.WFD)
	if !res.Schedulable {
		t.Fatalf("unschedulable: %s", res.Reason)
	}
	p := res.Partition

	// Packing: A and C2 share p0, B alone on p1.
	if !p.IsShared(0) || !p.IsShared(1) || !p.IsShared(2) {
		t.Error("all tasks are light and must be marked shared")
	}
	if got := p.SharedOn(0); len(got) != 2 {
		t.Errorf("SharedOn(p0) = %v, want two tasks", got)
	}
	if got := p.SharedOn(1); len(got) != 1 || got[0] != 1 {
		t.Errorf("SharedOn(p1) = %v, want [B]", got)
	}
	if got := p.ResourceProc(0); got != 1 {
		t.Errorf("l0 placed on proc %d, want max-slack p1", got)
	}

	if got, want := res.WCRT[2], 5*rt.Microsecond; got != want {
		t.Errorf("R_C2 = %s, want %s", rt.FormatTime(got), rt.FormatTime(want))
	}
	if got, want := res.WCRT[0], 18*rt.Microsecond; got != want {
		t.Errorf("R_A = %s, want %s", rt.FormatTime(got), rt.FormatTime(want))
	}
	if got, want := res.WCRT[1], 24*rt.Microsecond; got != want {
		t.Errorf("R_B = %s, want %s", rt.FormatTime(got), rt.FormatTime(want))
	}
}

func TestAlgorithmMixedHeavyAndLight(t *testing.T) {
	// One heavy task plus two lights: the heavy task receives a federated
	// cluster, the lights share what remains.
	ts := model.NewTaskset(4, 1)
	h := model.NewTask(0, 60*rt.Microsecond, 60*rt.Microsecond)
	for i := 0; i < 3; i++ {
		h.AddVertex(25 * rt.Microsecond) // C=75, U=1.25: heavy
	}
	ts.Add(h)
	for id := 1; id <= 3; id++ {
		l := model.NewTask(rt.TaskID(id), rt.Time(100*id)*rt.Microsecond,
			rt.Time(100*id)*rt.Microsecond)
		vl := l.AddVertex(10 * rt.Microsecond)
		l.AddRequest(vl, 0, 1, 2*rt.Microsecond)
		ts.Add(l)
	}
	if err := ts.Finalize(); err != nil {
		t.Fatal(err)
	}
	res := partition.Algorithm1(ts, NewDPCPp(ts, DefaultPathCap, false), partition.WFD)
	if !res.Schedulable {
		t.Fatalf("unschedulable: %s", res.Reason)
	}
	p := res.Partition
	if p.IsShared(0) {
		t.Error("heavy task marked shared")
	}
	if p.NumProcs(0) < 2 {
		t.Errorf("heavy cluster = %d procs, want >= 2", p.NumProcs(0))
	}
	shared := 0
	for id := rt.TaskID(1); id <= 3; id++ {
		if !p.IsShared(id) {
			t.Errorf("light task %d not marked shared", id)
		}
		if p.NumProcs(id) != 1 {
			t.Errorf("light task %d on %d procs", id, p.NumProcs(id))
		}
		shared++
	}
	// 3 lights over at most 2 remaining processors: at least one pair
	// shares.
	procsUsed := map[rt.ProcID]bool{}
	for id := rt.TaskID(1); id <= 3; id++ {
		procsUsed[p.Procs(id)[0]] = true
	}
	if len(procsUsed) > 4-p.NumProcs(0) {
		t.Errorf("lights spread over %d procs with only %d free",
			len(procsUsed), 4-p.NumProcs(0))
	}
	// The global resource lands on the heavy cluster.
	if owner := p.Owner(p.ResourceProc(0)); owner != 0 {
		t.Errorf("l0 on task %d's processor, want the heavy cluster", owner)
	}
}

func TestAlgorithmMixedRejectsOverfullLights(t *testing.T) {
	// Two lights of utilization 0.9 with a heavy task eating all but one
	// processor: the second light cannot fit.
	ts := model.NewTaskset(3, 0)
	h := model.NewTask(0, 50*rt.Microsecond, 50*rt.Microsecond)
	for i := 0; i < 3; i++ {
		h.AddVertex(25 * rt.Microsecond)
	}
	ts.Add(h)
	for id := 1; id <= 2; id++ {
		l := model.NewTask(rt.TaskID(id), 100*rt.Microsecond, 100*rt.Microsecond)
		l.AddVertex(90 * rt.Microsecond)
		ts.Add(l)
	}
	if err := ts.Finalize(); err != nil {
		t.Fatal(err)
	}
	res := partition.Algorithm1(ts, NewDPCPp(ts, DefaultPathCap, false), partition.WFD)
	if res.Schedulable {
		t.Fatal("accepted two 0.9-utilization lights on one shared processor")
	}
}

func TestLightAnalysisAccountsForPreemption(t *testing.T) {
	// Pin the packing manually (A and C2 on p0, B on p1, l0 on p1) and
	// check the bound grows with the co-located higher-priority task's
	// WCET: doubling C2's WCET adds at least the increase to A's bound.
	build := func(c2WCET rt.Time) (*model.Taskset, *partition.Partition) {
		ts := model.NewTaskset(2, 1)
		a := model.NewTask(0, 100*rt.Microsecond, 100*rt.Microsecond)
		va := a.AddVertex(10 * rt.Microsecond)
		a.AddRequest(va, 0, 1, 2*rt.Microsecond)
		ts.Add(a)
		b := model.NewTask(1, 200*rt.Microsecond, 200*rt.Microsecond)
		vb := b.AddVertex(20 * rt.Microsecond)
		b.AddRequest(vb, 0, 1, 3*rt.Microsecond)
		ts.Add(b)
		c2 := model.NewTask(2, 50*rt.Microsecond, 50*rt.Microsecond)
		c2.AddVertex(c2WCET)
		ts.Add(c2)
		if err := ts.Finalize(); err != nil {
			t.Fatal(err)
		}
		p := partition.New(ts)
		if err := p.AssignShared(0, 0); err != nil {
			t.Fatal(err)
		}
		if err := p.AssignShared(2, 0); err != nil {
			t.Fatal(err)
		}
		if err := p.AssignShared(1, 1); err != nil {
			t.Fatal(err)
		}
		p.PlaceResource(0, 1)
		return ts, p
	}

	tsBase, pBase := build(5 * rt.Microsecond)
	wBase := NewDPCPp(tsBase, DefaultPathCap, false).WCRTs(pBase, false)
	tsBig, pBig := build(10 * rt.Microsecond)
	wBig := NewDPCPp(tsBig, DefaultPathCap, false).WCRTs(pBig, false)

	if wBase[0] != 18*rt.Microsecond {
		t.Errorf("base R_A = %s, want 18us", rt.FormatTime(wBase[0]))
	}
	if wBig[0] < wBase[0]+5*rt.Microsecond {
		t.Errorf("A's bound must absorb the larger preemption: %s vs base %s",
			rt.FormatTime(wBig[0]), rt.FormatTime(wBase[0]))
	}
}

// TestServesLightSet requires the served pipeline to schedule the Sec. VI
// example: the DPCP-p methods pack its three light tasks onto m = 2 with
// the hand-derived bounds of lightSet, and the baselines, which never
// pack, reject it at the initial assignment.
func TestServesLightSet(t *testing.T) {
	ts := lightSet(t)
	for _, m := range Methods() {
		res := Test(m, ts, Options{})
		if m != DPCPpEP && m != DPCPpEN {
			if res.Schedulable || !strings.Contains(res.Reason, "not enough processors") {
				t.Errorf("%s: schedulable=%v reason %q, want not enough processors", m, res.Schedulable, res.Reason)
			}
			continue
		}
		if !res.Schedulable {
			t.Fatalf("%s: unschedulable: %s", m, res.Reason)
		}
		if res.Partition.Unassigned() != 0 {
			t.Errorf("%s: %d processors left unassigned after packing", m, res.Partition.Unassigned())
		}
		for id, want := range map[rt.TaskID]rt.Time{0: 18 * rt.Microsecond, 1: 24 * rt.Microsecond, 2: 5 * rt.Microsecond} {
			if got := res.WCRT[id]; got != want {
				t.Errorf("%s: R_%d = %s, want %s", m, id, rt.FormatTime(got), rt.FormatTime(want))
			}
		}
	}
}
