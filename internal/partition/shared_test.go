package partition

import (
	"testing"

	"dpcpp/internal/model"
	"dpcpp/internal/rt"
)

func TestAssignSharedRejectsHeavyProc(t *testing.T) {
	ts := partitionSet(t, 8)
	p := New(ts)
	if !p.Assign(0, 2) {
		t.Fatal("Assign failed")
	}
	if err := p.AssignShared(1, p.Procs(0)[0]); err == nil {
		t.Error("AssignShared accepted a heavy-owned processor")
	}
}

func TestAssignSharedRejectsDuplicate(t *testing.T) {
	ts := partitionSet(t, 8)
	p := New(ts)
	if err := p.AssignShared(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := p.AssignShared(0, 5); err == nil {
		t.Error("duplicate AssignShared accepted")
	}
}

func TestAssignSkipsSharedProcs(t *testing.T) {
	ts := partitionSet(t, 4)
	p := New(ts)
	if err := p.AssignShared(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.AssignShared(1, 1); err != nil {
		t.Fatal(err)
	}
	if got := p.Unassigned(); got != 2 {
		t.Fatalf("Unassigned = %d, want 2", got)
	}
	// A heavy assignment must avoid processors 0 and 1.
	if !p.Assign(1, 2) {
		t.Fatal("Assign(1,2) failed with 2 free procs")
	}
	for _, k := range p.Procs(1) {
		if k == 0 && len(p.SharedOn(0)) > 0 {
			t.Error("heavy task placed on a shared processor")
		}
	}
}

func TestIsSharedAndSharedOn(t *testing.T) {
	ts := partitionSet(t, 8)
	p := New(ts)
	p.Assign(0, 2)
	if err := p.AssignShared(1, 4); err != nil {
		t.Fatal(err)
	}
	if p.IsShared(0) {
		t.Error("heavy task reported shared")
	}
	if !p.IsShared(1) {
		t.Error("light task not reported shared")
	}
	if got := p.SharedOn(4); len(got) != 1 || got[0] != 1 {
		t.Errorf("SharedOn(4) = %v", got)
	}
	if got := p.SharedOn(5); len(got) != 0 {
		t.Errorf("SharedOn(5) = %v, want empty", got)
	}
}

func TestCloneCopiesShared(t *testing.T) {
	ts := partitionSet(t, 8)
	p := New(ts)
	if err := p.AssignShared(0, 3); err != nil {
		t.Fatal(err)
	}
	c := p.Clone()
	if err := c.AssignShared(1, 3); err != nil {
		t.Fatal(err)
	}
	if len(p.SharedOn(3)) != 1 {
		t.Error("Clone shares the light-task map")
	}
	if !c.IsShared(0) {
		t.Error("Clone lost the shared assignment")
	}
}

// mixedStub marks every task schedulable, so Algorithm1 exercises only the
// packing logic.
type mixedStub struct{}

func (mixedStub) WCRTs(p *Partition, _ bool) map[rt.TaskID]rt.Time {
	out := make(map[rt.TaskID]rt.Time)
	for _, t := range p.TS.Tasks {
		out[t.ID] = 0
	}
	return out
}

func TestAlgorithmMixedPacksLightsWorstFit(t *testing.T) {
	ts := model.NewTaskset(3, 0)
	// One heavy task (a federated cluster of 2) and three lights with
	// utilizations 0.6, 0.3, 0.2 on m = 3: the federated assignment needs
	// 5 processors, so the lights are packed onto the one left, and
	// 0.6+0.3+0.2 > 1 -> reject.
	h := model.NewTask(0, 100*rt.Microsecond, 100*rt.Microsecond)
	for i := 0; i < 3; i++ {
		h.AddVertex(50 * rt.Microsecond) // C=150, U=1.5 heavy; L*=50
	}
	ts.Add(h)
	utils := []rt.Time{60, 30, 20}
	for i, c := range utils {
		l := model.NewTask(rt.TaskID(i+1), 100*rt.Microsecond, 100*rt.Microsecond)
		l.AddVertex(c * rt.Microsecond)
		ts.Add(l)
	}
	if err := ts.Finalize(); err != nil {
		t.Fatal(err)
	}
	res := Algorithm1(ts, mixedStub{}, WFD)
	if res.Schedulable {
		t.Fatal("overfull light packing accepted")
	}

	// Drop the 0.6 task: 0.3 + 0.2 fit on the single remaining processor.
	ts2 := model.NewTaskset(3, 0)
	h2 := model.NewTask(0, 100*rt.Microsecond, 100*rt.Microsecond)
	for i := 0; i < 3; i++ {
		h2.AddVertex(50 * rt.Microsecond)
	}
	ts2.Add(h2)
	for i, c := range []rt.Time{30, 20} {
		l := model.NewTask(rt.TaskID(i+1), 100*rt.Microsecond, 100*rt.Microsecond)
		l.AddVertex(c * rt.Microsecond)
		ts2.Add(l)
	}
	if err := ts2.Finalize(); err != nil {
		t.Fatal(err)
	}
	res2 := Algorithm1(ts2, mixedStub{}, WFD)
	if !res2.Schedulable {
		t.Fatalf("feasible light packing rejected: %s", res2.Reason)
	}
	if !res2.Partition.IsShared(1) || !res2.Partition.IsShared(2) {
		t.Error("lights not marked shared")
	}
	if n := res2.Partition.Unassigned(); n != 0 {
		t.Errorf("%d processors unassigned after packing, want 0", n)
	}
}
