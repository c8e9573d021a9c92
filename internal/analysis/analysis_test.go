package analysis

import (
	"math/rand"
	"slices"
	"testing"

	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
	"dpcpp/internal/taskgen"
)

// handSet builds the fully hand-computed two-task example:
//
//	task A (high prio): one vertex, C=10us, one request to global l0
//	                    with L_A = 2us; T = D = 100us.
//	task B (low prio):  one vertex, C=20us, one request to l0 with
//	                    L_B = 3us; T = D = 200us.
//
// On m=4 processors, each task gets one processor and l0 lands on A's
// cluster (first among equal slacks). Expected DPCP-p bounds, derived by
// hand from Lemmas 2-6 and Theorem 1:
//
//	R_A = 10 + min(eps=3, zeta=6) + (I_A = 2 jobs x 3us) = 19us
//	R_B = 20 + min(eps=2, zeta=2) + 0                   = 22us
func handSet(t *testing.T) *model.Taskset {
	t.Helper()
	ts := model.NewTaskset(4, 1)
	a := model.NewTask(0, 100*rt.Microsecond, 100*rt.Microsecond)
	va := a.AddVertex(10 * rt.Microsecond)
	a.AddRequest(va, 0, 1, 2*rt.Microsecond)
	ts.Add(a)
	b := model.NewTask(1, 200*rt.Microsecond, 200*rt.Microsecond)
	vb := b.AddVertex(20 * rt.Microsecond)
	b.AddRequest(vb, 0, 1, 3*rt.Microsecond)
	ts.Add(b)
	if err := ts.Finalize(); err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestDPCPpHandComputedBounds(t *testing.T) {
	ts := handSet(t)
	res := Test(DPCPpEP, ts, Options{})
	if !res.Schedulable {
		t.Fatalf("unschedulable: %s", res.Reason)
	}
	if got, want := res.WCRT[0], 19*rt.Microsecond; got != want {
		t.Errorf("R_A = %s, want %s", rt.FormatTime(got), rt.FormatTime(want))
	}
	if got, want := res.WCRT[1], 22*rt.Microsecond; got != want {
		t.Errorf("R_B = %s, want %s", rt.FormatTime(got), rt.FormatTime(want))
	}
}

func TestDPCPpENMatchesEPOnSingleVertexTasks(t *testing.T) {
	// With one vertex per task there is exactly one path, so EN's per-term
	// extremes coincide with EP's exact path.
	ts := handSet(t)
	ep := Test(DPCPpEP, ts, Options{})
	en := Test(DPCPpEN, ts, Options{})
	if !ep.Schedulable || !en.Schedulable {
		t.Fatal("both variants must schedule the hand example")
	}
	for id := range ep.WCRT {
		if ep.WCRT[id] != en.WCRT[id] {
			t.Errorf("task %d: EP=%s EN=%s", id,
				rt.FormatTime(ep.WCRT[id]), rt.FormatTime(en.WCRT[id]))
		}
	}
}

func TestSpinHandComputedBounds(t *testing.T) {
	// delta_A = min(m_B=1, V_B=1)*3us = 3us -> R_A = 10 + 3 = 13us.
	// delta_B = min(1,1)*2us = 2us        -> R_B = 20 + 2 = 22us.
	ts := handSet(t)
	res := Test(SPIN, ts, Options{})
	if !res.Schedulable {
		t.Fatalf("unschedulable: %s", res.Reason)
	}
	if got, want := res.WCRT[0], 13*rt.Microsecond; got != want {
		t.Errorf("SPIN R_A = %s, want %s", rt.FormatTime(got), rt.FormatTime(want))
	}
	if got, want := res.WCRT[1], 22*rt.Microsecond; got != want {
		t.Errorf("SPIN R_B = %s, want %s", rt.FormatTime(got), rt.FormatTime(want))
	}
}

func TestLPPHandComputedBounds(t *testing.T) {
	// With a single requesting vertex per task, the LPP queue bound equals
	// the spin bound: R_A = 13us, R_B = 22us.
	ts := handSet(t)
	res := Test(LPP, ts, Options{})
	if !res.Schedulable {
		t.Fatalf("unschedulable: %s", res.Reason)
	}
	if got, want := res.WCRT[0], 13*rt.Microsecond; got != want {
		t.Errorf("LPP R_A = %s, want %s", rt.FormatTime(got), rt.FormatTime(want))
	}
	if got, want := res.WCRT[1], 22*rt.Microsecond; got != want {
		t.Errorf("LPP R_B = %s, want %s", rt.FormatTime(got), rt.FormatTime(want))
	}
}

func TestFedFPHandComputedBounds(t *testing.T) {
	ts := handSet(t)
	res := Test(FEDFP, ts, Options{})
	if !res.Schedulable {
		t.Fatalf("unschedulable: %s", res.Reason)
	}
	if got, want := res.WCRT[0], 10*rt.Microsecond; got != want {
		t.Errorf("FED-FP R_A = %s, want %s", rt.FormatTime(got), rt.FormatTime(want))
	}
	if got, want := res.WCRT[1], 20*rt.Microsecond; got != want {
		t.Errorf("FED-FP R_B = %s, want %s", rt.FormatTime(got), rt.FormatTime(want))
	}
}

// resourceFreeSet builds tasks with no shared resources at all.
func resourceFreeSet(t *testing.T) *model.Taskset {
	t.Helper()
	ts := model.NewTaskset(8, 0)
	for id := 0; id < 2; id++ {
		task := model.NewTask(rt.TaskID(id), rt.Time(100+100*id)*rt.Microsecond,
			rt.Time(100+100*id)*rt.Microsecond)
		head := task.AddVertex(10 * rt.Microsecond)
		for i := 0; i < 6; i++ {
			v := task.AddVertex(rt.Time(10+i) * rt.Microsecond)
			task.AddEdge(head, v)
		}
		ts.Add(task)
	}
	if err := ts.Finalize(); err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestDPCPpWithoutResourcesEqualsFedFP(t *testing.T) {
	ts := resourceFreeSet(t)
	dp := Test(DPCPpEP, ts, Options{})
	fp := Test(FEDFP, ts, Options{})
	if !dp.Schedulable || !fp.Schedulable {
		t.Fatalf("resource-free set must be schedulable: dpcp=%v fed=%v",
			dp.Schedulable, fp.Schedulable)
	}
	for id := range dp.WCRT {
		if dp.WCRT[id] != fp.WCRT[id] {
			t.Errorf("task %d: DPCP-p=%s FED-FP=%s (must match with no resources)",
				id, rt.FormatTime(dp.WCRT[id]), rt.FormatTime(fp.WCRT[id]))
		}
	}
}

// TestEPDominatesENPerPartition verifies the paper's core analytical
// relationship: on the same partition, the per-task EP bound never exceeds
// the EN bound (EP dominates EN in Tables 2-3).
func TestEPDominatesENPerPartition(t *testing.T) {
	g := taskgen.NewGenerator(taskgen.Scenario{
		M: 16, NumRes: taskgen.IntRange{Lo: 4, Hi: 8}, UAvg: 1.5, PAccess: 0.5,
		NReq:  taskgen.IntRange{Lo: 1, Hi: 25},
		CSLen: taskgen.TimeRange{Lo: 15 * rt.Microsecond, Hi: 50 * rt.Microsecond},
	})
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		ts, err := g.Taskset(r, 4.0+r.Float64()*6)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ep := NewDPCPp(ts, DefaultPathCap, false)
		res := partition.Algorithm1(ts, ep, partition.WFD)
		if res.Partition == nil || res.Partition.Unassigned() == res.Partition.TS.NumProcs {
			continue
		}
		// Compare both analyzers on the final partition of the EP run.
		epW := ep.WCRTs(res.Partition, false)
		enW := NewDPCPp(ts, DefaultPathCap, true).WCRTs(res.Partition, false)
		for id, w := range epW {
			if w > enW[id] {
				t.Errorf("seed %d task %d: EP bound %s exceeds EN bound %s",
					seed, id, rt.FormatTime(w), rt.FormatTime(enW[id]))
			}
		}
	}
}

// TestFedFPDominatesAll verifies FED-FP (resources ignored) is an upper
// envelope: whenever any method schedules a set, FED-FP does too.
func TestFedFPDominatesAll(t *testing.T) {
	g := taskgen.NewGenerator(taskgen.Scenario{
		M: 8, NumRes: taskgen.IntRange{Lo: 2, Hi: 4}, UAvg: 1.5, PAccess: 0.5,
		NReq:  taskgen.IntRange{Lo: 1, Hi: 25},
		CSLen: taskgen.TimeRange{Lo: 15 * rt.Microsecond, Hi: 50 * rt.Microsecond},
	})
	for seed := int64(0); seed < 15; seed++ {
		r := rand.New(rand.NewSource(seed))
		ts, err := g.Taskset(r, 2.0+r.Float64()*5)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fed := Schedulable(FEDFP, ts, Options{})
		for _, m := range []Method{DPCPpEP, DPCPpEN, SPIN, LPP} {
			if Schedulable(m, ts, Options{}) && !fed {
				t.Errorf("seed %d: %s schedulable but FED-FP not", seed, m)
			}
		}
	}
}

// TestWCRTsDecreaseWithMoreProcessors: giving a task extra processors must
// never increase its own DPCP-p bound.
func TestWCRTsDecreaseWithMoreProcessors(t *testing.T) {
	ts := handSet(t)
	a := NewDPCPp(ts, DefaultPathCap, false)

	small := partition.New(ts)
	small.Assign(0, 1)
	small.Assign(1, 1)
	small.PlaceResource(0, 0)
	wSmall := a.WCRTs(small, false)

	big := partition.New(ts)
	big.Assign(0, 2)
	big.Assign(1, 2)
	big.PlaceResource(0, 0)
	wBig := a.WCRTs(big, false)

	for id := range wSmall {
		if wBig[id] > wSmall[id] {
			t.Errorf("task %d: bound grew from %s to %s with more processors",
				id, rt.FormatTime(wSmall[id]), rt.FormatTime(wBig[id]))
		}
	}
}

// TestLowerPriorityBlockingBoundedOnce: construct a case with two
// lower-priority tasks sharing the resource; beta must reflect only the
// single longest lower-priority critical section (Lemma 1 / Lemma 2).
func TestLowerPriorityBlockingBoundedOnce(t *testing.T) {
	ts := model.NewTaskset(6, 1)
	hi := model.NewTask(0, 100*rt.Microsecond, 100*rt.Microsecond)
	v := hi.AddVertex(10 * rt.Microsecond)
	hi.AddRequest(v, 0, 1, 2*rt.Microsecond)
	ts.Add(hi)
	for id := 1; id <= 2; id++ {
		lo := model.NewTask(rt.TaskID(id), rt.Time(200+10*id)*rt.Microsecond,
			rt.Time(200+10*id)*rt.Microsecond)
		vl := lo.AddVertex(20 * rt.Microsecond)
		lo.AddRequest(vl, 0, 1, rt.Time(3+id)*rt.Microsecond) // CS 4us and 5us
		ts.Add(lo)
	}
	if err := ts.Finalize(); err != nil {
		t.Fatal(err)
	}
	res := Test(DPCPpEP, ts, Options{})
	if !res.Schedulable {
		t.Fatalf("unschedulable: %s", res.Reason)
	}
	// WFD places l0 on the max-slack cluster, which is task 2's (slack
	// 1 - 20/220), so hi suffers no agent interference on its own cluster.
	// R_hi = 10 (path) + min(eps, zeta) where eps = beta = 5us — the
	// longest single lower-priority CS, NOT 4+5=9 (that sum is exactly
	// what zeta would charge). Total: 15us.
	if got, want := res.WCRT[0], 15*rt.Microsecond; got != want {
		t.Errorf("R_hi = %s, want %s (beta must count one lower-priority CS)",
			rt.FormatTime(got), rt.FormatTime(want))
	}
}

func TestPathCapFallbackIsSound(t *testing.T) {
	// A DAG with 2^10 paths analyzed with a tiny cap must fall back to EN
	// and still produce a bound >= the EP bound with a large cap.
	ts := model.NewTaskset(4, 1)
	task := model.NewTask(0, 10*rt.Millisecond, 10*rt.Millisecond)
	prev := task.AddVertex(10 * rt.Microsecond)
	for i := 0; i < 10; i++ {
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

	exact := Test(DPCPpEP, ts, Options{PathCap: 1 << 12})
	capped := Test(DPCPpEP, ts, Options{PathCap: 4})
	if !exact.Schedulable || !capped.Schedulable {
		t.Fatalf("both runs should schedule: exact=%v capped=%v",
			exact.Schedulable, capped.Schedulable)
	}
	for id := range exact.WCRT {
		if capped.WCRT[id] < exact.WCRT[id] {
			t.Errorf("task %d: capped fallback bound %s below exact EP bound %s",
				id, rt.FormatTime(capped.WCRT[id]), rt.FormatTime(exact.WCRT[id]))
		}
	}
}

func TestMethodsList(t *testing.T) {
	ms := Methods()
	if len(ms) != 5 {
		t.Fatalf("Methods() = %v", ms)
	}
	if ms[0] != DPCPpEP || ms[4] != FEDFP {
		t.Errorf("unexpected order: %v", ms)
	}
}

// TestParseMethods: names are trimmed, a repeat is kept once at its first
// occurrence, an unknown name is an error and no names mean all five.
func TestParseMethods(t *testing.T) {
	got, err := ParseMethods([]string{" LPP", "DPCP-p-EP", "LPP ", "DPCP-p-EP"})
	if err != nil || !slices.Equal(got, []Method{LPP, DPCPpEP}) {
		t.Errorf("ParseMethods = %v, %v; want [LPP DPCP-p-EP]", got, err)
	}
	if got, err := ParseMethods(nil); err != nil || !slices.Equal(got, Methods()) {
		t.Errorf("ParseMethods(nil) = %v, %v; want all methods", got, err)
	}
	if _, err := ParseMethods([]string{"LPP", "DPCP-q"}); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestTestPanicsOnUnknownMethod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Test with unknown method did not panic")
		}
	}()
	Test(Method("bogus"), handSet(t), Options{})
}
