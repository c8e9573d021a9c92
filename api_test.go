package dpcpp

import (
	"math/rand"
	"testing"
)

// TestFacadeEndToEnd exercises the public API exactly as README's quick
// start does: scenario -> generator -> taskset -> analysis -> simulation.
func TestFacadeEndToEnd(t *testing.T) {
	scen, err := Fig2Scenario("2a")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(scen)
	ts, err := g.Taskset(rand.New(rand.NewSource(42)), 6.0)
	if err != nil {
		t.Fatal(err)
	}

	res := Test(DPCPpEP, ts, Options{})
	if !res.Schedulable {
		t.Fatalf("seed 42 / U=6 must be schedulable under DPCP-p-EP: %s", res.Reason)
	}
	for _, task := range ts.Tasks {
		if res.WCRT[task.ID] > task.Deadline {
			t.Errorf("task %d: R > D on a schedulable verdict", task.ID)
		}
	}

	var horizon Time
	for _, task := range ts.Tasks {
		if task.Period > horizon {
			horizon = task.Period
		}
	}
	s, err := NewSim(ts, res.Partition, SimConfig{Horizon: 2 * horizon})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.DeadlineMisses != 0 {
		t.Errorf("deadline misses: %d", m.DeadlineMisses)
	}
	if len(s.Violations()) != 0 {
		t.Errorf("violations: %v", s.Violations())
	}
	for _, task := range ts.Tasks {
		if m.MaxResponse[task.ID] > res.WCRT[task.ID] {
			t.Errorf("task %d: simulated response exceeds bound", task.ID)
		}
	}
}

// TestFacadeDelta exercises the what-if API through the facade: retain a
// base, patch one WCET, and check the Delta verdict against a direct
// analysis of the patched set.
func TestFacadeDelta(t *testing.T) {
	scen, err := Fig2Scenario("2a")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := NewGenerator(scen).Taskset(rand.New(rand.NewSource(1)), 6.0)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	res, d := NewDelta(sc, DPCPpEP, ts, Options{})
	if !res.Schedulable || d == nil {
		t.Fatalf("base must be schedulable with retained state (schedulable=%v, state=%v)",
			res.Schedulable, d != nil)
	}
	p := Patch{Ops: []PatchOp{{
		Op:     "set_wcet",
		Task:   ts.Tasks[0].ID,
		Vertex: 0,
		Value:  ts.Tasks[0].Vertices[0].WCET + Microsecond,
	}}}
	patched, _, err := ApplyPatch(ts, p)
	if err != nil {
		t.Fatal(err)
	}
	_, got, _, err := d.Apply(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	want := TestWith(NewScratch(), DPCPpEP, patched, Options{})
	if got.Schedulable != want.Schedulable {
		t.Fatalf("delta verdict %v != full %v", got.Schedulable, want.Schedulable)
	}
	for id, w := range want.WCRT {
		if got.WCRT[id] != w {
			t.Errorf("task %d: delta bound %d != full %d", id, got.WCRT[id], w)
		}
	}
}

func TestFacadeMethodsAndScenarios(t *testing.T) {
	if got := len(Methods()); got != 5 {
		t.Errorf("Methods() = %d entries, want 5", got)
	}
	if got := len(Grid()); got != 216 {
		t.Errorf("Grid() = %d scenarios, want 216", got)
	}
	pts := UtilizationPoints(8)
	if pts[0] != 1.0 || pts[len(pts)-1] != 8.0 {
		t.Errorf("UtilizationPoints(8) endpoints: %v", pts)
	}
}

func TestFacadeRandFixedSum(t *testing.T) {
	xs, err := RandFixedSum(rand.New(rand.NewSource(1)), 4, 10, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	if sum < 9.999 || sum > 10.001 {
		t.Errorf("sum = %g", sum)
	}
}

func TestFacadeExplain(t *testing.T) {
	ts := NewTaskset(4, 1)
	a := NewTask(0, 100*Microsecond, 100*Microsecond)
	va := a.AddVertex(10 * Microsecond)
	a.AddRequest(va, 0, 1, 2*Microsecond)
	ts.Add(a)
	b := NewTask(1, 200*Microsecond, 200*Microsecond)
	vb := b.AddVertex(20 * Microsecond)
	b.AddRequest(vb, 0, 1, 3*Microsecond)
	ts.Add(b)
	if err := ts.Finalize(); err != nil {
		t.Fatal(err)
	}
	res := Test(DPCPpEP, ts, Options{})
	if !res.Schedulable {
		t.Fatal("hand set must schedule")
	}
	bds := Explain(ts, res.Partition, 0)
	if len(bds) != 2 {
		t.Fatalf("Explain returned %d breakdowns", len(bds))
	}
	for _, bd := range bds {
		if bd.Total != res.WCRT[bd.TaskID] {
			t.Errorf("task %d: breakdown total != WCRT", bd.TaskID)
		}
	}
}

func TestFacadeProtocolModes(t *testing.T) {
	ts := NewTaskset(2, 1)
	a := NewTask(0, 100*Microsecond, 100*Microsecond)
	va := a.AddVertex(10 * Microsecond)
	a.AddRequest(va, 0, 1, 2*Microsecond)
	ts.Add(a)
	b := NewTask(1, 200*Microsecond, 200*Microsecond)
	vb := b.AddVertex(20 * Microsecond)
	b.AddRequest(vb, 0, 1, 3*Microsecond)
	ts.Add(b)
	if err := ts.Finalize(); err != nil {
		t.Fatal(err)
	}
	res := Test(SPIN, ts, Options{})
	if !res.Schedulable {
		t.Fatal("SPIN must schedule the two-task example")
	}
	for _, proto := range []Protocol{ProtocolDPCPp, ProtocolSpin, ProtocolLPP} {
		cfg := SimConfig{Horizon: 400 * Microsecond, Protocol: proto}
		if proto == ProtocolDPCPp {
			// DPCP-p needs the resource placed; reuse the DPCP-p pipeline.
			dres := Test(DPCPpEP, ts, Options{})
			s, err := NewSim(ts, dres.Partition, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatalf("protocol %d: %v", proto, err)
			}
			continue
		}
		s, err := NewSim(ts, res.Partition, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Run()
		if err != nil {
			t.Fatalf("protocol %d: %v", proto, err)
		}
		if m.DeadlineMisses != 0 {
			t.Errorf("protocol %d: misses", proto)
		}
	}
}
