package model

import (
	"math"
	"testing"

	"dpcpp/internal/rt"
)

func twoTaskSet(t *testing.T) *Taskset {
	t.Helper()
	ts := NewTaskset(4, 2)

	// Task 0: period 100us, uses l0 and l1.
	t0 := NewTask(0, 100*rt.Microsecond, 100*rt.Microsecond)
	a := t0.AddVertex(10 * rt.Microsecond)
	b := t0.AddVertex(10 * rt.Microsecond)
	t0.AddEdge(a, b)
	t0.AddRequest(a, 0, 2, 2*rt.Microsecond)
	t0.AddRequest(b, 1, 1, 3*rt.Microsecond)
	ts.Add(t0)

	// Task 1: period 50us (shorter, so RM gives it higher priority), uses l0.
	t1 := NewTask(1, 50*rt.Microsecond, 50*rt.Microsecond)
	c := t1.AddVertex(8 * rt.Microsecond)
	t1.AddRequest(c, 0, 1, 4*rt.Microsecond)
	ts.Add(t1)

	if err := ts.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return ts
}

func TestRMPriorityAssignment(t *testing.T) {
	ts := twoTaskSet(t)
	t0, t1 := ts.Task(0), ts.Task(1)
	if !t1.Priority.Higher(t0.Priority) {
		t.Errorf("RM: task 1 (T=50us) should outrank task 0 (T=100us); got %d vs %d",
			t1.Priority, t0.Priority)
	}
}

func TestTaskIndex(t *testing.T) {
	ts := NewTaskset(2, 0)
	for _, id := range []rt.TaskID{7, 3} {
		task := NewTask(id, rt.Millisecond, rt.Millisecond)
		task.AddVertex(rt.Microsecond)
		ts.Add(task)
	}
	if err := ts.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	for pos, task := range ts.Tasks {
		if got := ts.TaskIndex(task.ID); got != pos {
			t.Errorf("TaskIndex(%d) = %d, want %d", task.ID, got, pos)
		}
		if ts.Task(task.ID) != task {
			t.Errorf("Task(%d) is not ts.Tasks[%d]", task.ID, pos)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("TaskIndex of an unknown ID did not panic")
		}
	}()
	ts.TaskIndex(5)
}

func TestRMTieBreakByID(t *testing.T) {
	ts := NewTaskset(2, 0)
	for id := 0; id < 3; id++ {
		task := NewTask(rt.TaskID(id), rt.Millisecond, rt.Millisecond)
		task.AddVertex(rt.Microsecond)
		ts.Add(task)
	}
	if err := ts.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if !(ts.Task(0).Priority > ts.Task(1).Priority && ts.Task(1).Priority > ts.Task(2).Priority) {
		t.Errorf("equal periods should break ties by ID: got %d, %d, %d",
			ts.Task(0).Priority, ts.Task(1).Priority, ts.Task(2).Priority)
	}
}

func TestExplicitPrioritiesPreserved(t *testing.T) {
	ts := NewTaskset(2, 0)
	a := NewTask(0, 50*rt.Microsecond, 50*rt.Microsecond)
	a.AddVertex(rt.Microsecond)
	a.Priority = 1 // explicitly the lower priority despite the shorter period
	b := NewTask(1, 100*rt.Microsecond, 100*rt.Microsecond)
	b.AddVertex(rt.Microsecond)
	b.Priority = 2
	ts.Add(a)
	ts.Add(b)
	if err := ts.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if ts.Task(0).Priority != 1 || ts.Task(1).Priority != 2 {
		t.Errorf("explicit priorities were overwritten: %d, %d",
			ts.Task(0).Priority, ts.Task(1).Priority)
	}
}

func TestDuplicatePriorityRejected(t *testing.T) {
	ts := NewTaskset(2, 0)
	for id := 0; id < 2; id++ {
		task := NewTask(rt.TaskID(id), rt.Millisecond, rt.Millisecond)
		task.AddVertex(rt.Microsecond)
		task.Priority = 7
		ts.Add(task)
	}
	if err := ts.Finalize(); err == nil {
		t.Error("Finalize accepted duplicate priorities")
	}
}

func TestDuplicateTaskIDRejected(t *testing.T) {
	ts := NewTaskset(2, 0)
	for i := 0; i < 2; i++ {
		task := NewTask(3, rt.Millisecond, rt.Millisecond)
		task.AddVertex(rt.Microsecond)
		ts.Add(task)
	}
	if err := ts.Finalize(); err == nil {
		t.Error("Finalize accepted duplicate task IDs")
	}
}

func TestResourceClassification(t *testing.T) {
	ts := twoTaskSet(t)
	if !ts.IsGlobal(0) {
		t.Error("l0 is shared by two tasks but classified local")
	}
	if !ts.IsLocal(1) {
		t.Error("l1 is used by one task but classified global")
	}
	if g := ts.GlobalResources(); len(g) != 1 || g[0] != 0 {
		t.Errorf("GlobalResources = %v, want [0]", g)
	}
}

func TestSharersOrderedByPriority(t *testing.T) {
	ts := twoTaskSet(t)
	sh := ts.SharedBy(0)
	if len(sh) != 2 || sh[0] != 1 || sh[1] != 0 {
		t.Errorf("SharedBy(l0) = %v, want [1 0] (descending priority)", sh)
	}
}

func TestResourceUtilization(t *testing.T) {
	ts := twoTaskSet(t)
	// l0: task0 contributes 2*2/100, task1 contributes 1*4/50 = 0.04 + 0.08.
	if got, want := ts.ResourceUtilization(0), 0.12; math.Abs(got-want) > 1e-12 {
		t.Errorf("ResourceUtilization(l0) = %v, want %v", got, want)
	}
	// l1: only task0: 1*3/100.
	if got, want := ts.ResourceUtilization(1), 0.03; math.Abs(got-want) > 1e-12 {
		t.Errorf("ResourceUtilization(l1) = %v, want %v", got, want)
	}
}

func TestCeilingQueries(t *testing.T) {
	ts := twoTaskSet(t)
	hi := ts.Task(1).Priority
	lo := ts.Task(0).Priority
	if got := ts.Ceiling(0); got != hi {
		t.Errorf("Ceiling(l0) = %d, want %d", got, hi)
	}
	if got := ts.Ceiling(1); got != lo {
		t.Errorf("Ceiling(l1) = %d, want %d", got, lo)
	}
	if !ts.CeilingAtLeast(0, hi) {
		t.Error("CeilingAtLeast(l0, hi) = false, want true")
	}
	if ts.CeilingAtLeast(1, hi) {
		t.Error("CeilingAtLeast(l1, hi) = true, want false: only the low task uses l1")
	}
}

func TestByPriorityDesc(t *testing.T) {
	ts := twoTaskSet(t)
	order := ts.ByPriorityDesc()
	for i := 1; i < len(order); i++ {
		if order[i-1].Priority < order[i].Priority {
			t.Errorf("ByPriorityDesc not sorted at %d", i)
		}
	}
}

func TestTotalUtilization(t *testing.T) {
	ts := twoTaskSet(t)
	want := 20.0/100.0 + 8.0/50.0
	if got := ts.TotalUtilization(); math.Abs(got-want) > 1e-12 {
		t.Errorf("TotalUtilization = %v, want %v", got, want)
	}
}

func TestTooFewProcessorsRejected(t *testing.T) {
	ts := NewTaskset(1, 0)
	task := NewTask(0, rt.Millisecond, rt.Millisecond)
	task.AddVertex(rt.Microsecond)
	ts.Add(task)
	if err := ts.Finalize(); err == nil {
		t.Error("Finalize accepted m=1")
	}
}

// A task finalized for one resource count carries vectors of that size,
// so a taskset with another count must reject it rather than analyze it:
// with fewer resources the analyses indexed past its vectors, and with
// more they never saw its requests to the resources beyond the set's.
func TestFinalizedTaskResourceCountMismatchRejected(t *testing.T) {
	for _, c := range []struct {
		name         string
		taskRes, set int
	}{{"fewer", 1, 3}, {"more", 3, 1}} {
		t.Run(c.name, func(t *testing.T) {
			ts := NewTaskset(4, c.set)
			for id := rt.TaskID(0); id < 2; id++ {
				task := NewTask(id, 10*rt.Millisecond, 10*rt.Millisecond)
				x := task.AddVertex(3 * rt.Millisecond)
				task.AddRequest(x, rt.ResourceID(c.taskRes-1), 5, 500*rt.Microsecond)
				if err := task.Finalize(c.taskRes); err != nil {
					t.Fatal(err)
				}
				ts.Add(task)
			}
			if err := ts.Finalize(); err == nil {
				t.Errorf("taskset with %d resources accepted tasks finalized for %d", c.set, c.taskRes)
			}
		})
	}
}
