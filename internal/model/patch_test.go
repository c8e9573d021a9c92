package model

import (
	"bytes"
	"testing"

	"dpcpp/internal/rt"
)

// patchBase builds a small finalized two-task set with one shared resource
// and one task-local one: enough structure to exercise every patch op.
func patchBase(t *testing.T) *Taskset {
	t.Helper()
	ts := NewTaskset(4, 2)

	a := NewTask(0, 1000*rt.Microsecond, 900*rt.Microsecond)
	a.Priority = 2
	a.AddVertex(100 * rt.Microsecond)
	a.AddVertex(50 * rt.Microsecond)
	a.AddVertex(80 * rt.Microsecond)
	a.AddEdge(0, 1)
	a.AddEdge(1, 2)
	a.AddRequest(1, 0, 2, 5*rt.Microsecond)
	ts.Add(a)

	b := NewTask(1, 2000*rt.Microsecond, 2000*rt.Microsecond)
	b.Priority = 1
	b.AddVertex(200 * rt.Microsecond)
	b.AddVertex(150 * rt.Microsecond)
	b.AddRequest(0, 0, 1, 10*rt.Microsecond)
	b.AddRequest(1, 1, 3, 4*rt.Microsecond)
	ts.Add(b)

	if err := ts.Finalize(); err != nil {
		t.Fatal(err)
	}
	return ts
}

func applyOne(t *testing.T, ts *Taskset, op PatchOp) *Taskset {
	t.Helper()
	out, _, err := ApplyPatch(ts, Patch{Ops: []PatchOp{op}})
	if err != nil {
		t.Fatalf("ApplyPatch(%+v): %v", op, err)
	}
	return out
}

func TestPatchSetWCET(t *testing.T) {
	ts := patchBase(t)
	out := applyOne(t, ts, PatchOp{Op: OpSetWCET, Task: 0, Vertex: 1, Value: 60 * rt.Microsecond})
	if got := out.Task(0).Vertices[1].WCET; got != 60*rt.Microsecond {
		t.Errorf("patched WCET = %d", got)
	}
	if got := ts.Task(0).Vertices[1].WCET; got != 50*rt.Microsecond {
		t.Errorf("base mutated: WCET = %d", got)
	}

	out = applyOne(t, ts, PatchOp{Op: OpSetWCET, Task: 0, Vertex: 1, Value: 20 * rt.Microsecond})
	if got := out.Task(0).WCET(); got != 200*rt.Microsecond {
		t.Errorf("patched task WCET = %d, want 200us", got)
	}

	// Writing the old value back is not a change.
	out = applyOne(t, ts, PatchOp{Op: OpSetWCET, Task: 0, Vertex: 1, Value: 50 * rt.Microsecond})
	if out.Hash() != ts.Hash() {
		t.Errorf("no-op patch changed the hash")
	}
}

func TestPatchPointerSharing(t *testing.T) {
	ts := patchBase(t)
	out := applyOne(t, ts, PatchOp{Op: OpSetWCET, Task: 0, Vertex: 0, Value: 101 * rt.Microsecond})
	if out.Task(1) != ts.Task(1) {
		t.Error("untouched task not shared by pointer")
	}
	if out.Task(0) == ts.Task(0) {
		t.Error("patched task shared with base")
	}
}

func TestPatchSetCSLen(t *testing.T) {
	ts := patchBase(t)
	out := applyOne(t, ts, PatchOp{Op: OpSetCSLen, Task: 1, Resource: 0, Value: 20 * rt.Microsecond})
	if got := out.Task(1).CS(0); got != 20*rt.Microsecond {
		t.Errorf("patched CS = %d", got)
	}
	out = applyOne(t, ts, PatchOp{Op: OpSetCSLen, Task: 1, Resource: 0, Value: 3 * rt.Microsecond})
	if got := out.Task(1).CS(0); got != 3*rt.Microsecond {
		t.Errorf("patched CS = %d", got)
	}
}

func TestPatchSetRequest(t *testing.T) {
	ts := patchBase(t)
	for _, n := range []int{3, 1} {
		out := applyOne(t, ts, PatchOp{Op: OpSetRequest, Task: 0, Vertex: 1, Resource: 0, Count: n})
		if got := out.Task(0).NumRequests(0); got != int64(n) {
			t.Errorf("set_request %d: N_{0,0} = %d", n, got)
		}
	}
	// Crossing zero in either direction moves the task out of or into the
	// resource's sharers.
	out := applyOne(t, ts, PatchOp{Op: OpSetRequest, Task: 0, Vertex: 1, Resource: 0, Count: 0})
	if out.Task(0).UsesResource(0) {
		t.Error("task 0 still uses resource 0 after its last request went")
	}
	out = applyOne(t, ts, PatchOp{Op: OpSetRequest, Task: 0, Vertex: 0, Resource: 1, Count: 1})
	if !out.Task(0).UsesResource(1) {
		t.Error("task 0 does not use resource 1 after requesting it")
	}

	// Setting the count a vertex already has leaves its profile as it is,
	// zero-count entry and JSON bytes included.
	zero := ts.Task(0).Clone()
	zero.AddRequest(0, 1, 0, 0)
	base := NewTaskset(ts.NumProcs, ts.NumResources)
	base.Add(zero)
	base.Add(ts.Task(1))
	if err := base.Finalize(); err != nil {
		t.Fatal(err)
	}
	out = applyOne(t, base, PatchOp{Op: OpSetRequest, Task: 0, Vertex: 0, Resource: 1, Count: 0})
	var want, got bytes.Buffer
	if err := EncodeTaskset(&want, base); err != nil {
		t.Fatal(err)
	}
	if err := EncodeTaskset(&got, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("no-op set_request changed the JSON:\n%s\nwant\n%s", got.Bytes(), want.Bytes())
	}
}

func TestPatchEdges(t *testing.T) {
	ts := patchBase(t)
	out := applyOne(t, ts, PatchOp{Op: OpAddEdge, Task: 1, From: 0, To: 1})
	if got := out.Task(1).LongestPath(); got != 350*rt.Microsecond {
		t.Errorf("serialized longest path = %d, want 350us", got)
	}
	out = applyOne(t, ts, PatchOp{Op: OpRemoveEdge, Task: 0, From: 0, To: 1})
	if got := out.Task(0).Succ(0); len(got) != 0 {
		t.Errorf("removed edge kept: Succ(0) = %v", got)
	}
}

// TestPatchRepeatedEdge: a base that lists an edge twice and its hash twin
// that lists it once patch alike. remove_edge drops the precedence
// constraint however often it is listed, and add_edge of an edge already
// present changes nothing.
func TestPatchRepeatedEdge(t *testing.T) {
	build := func(edges ...Edge) *Taskset {
		task := NewTask(0, 1000*rt.Microsecond, 1000*rt.Microsecond)
		task.Priority = 1
		for range 3 {
			task.AddVertex(100 * rt.Microsecond)
		}
		task.Edges = edges
		ts := NewTaskset(2, 0)
		ts.Add(task)
		if err := ts.Finalize(); err != nil {
			t.Fatal(err)
		}
		return ts
	}
	repeated := build(Edge{0, 1}, Edge{0, 1}, Edge{1, 2})
	once := build(Edge{0, 1}, Edge{1, 2})
	if repeated.Hash() != once.Hash() {
		t.Fatalf("twins hash apart: %s vs %s", repeated.Hash(), once.Hash())
	}
	for _, c := range []struct {
		op      PatchOp
		changes bool
	}{
		{PatchOp{Op: OpRemoveEdge, Task: 0, From: 0, To: 1}, true},
		{PatchOp{Op: OpAddEdge, Task: 0, From: 0, To: 1}, false},
	} {
		r := applyOne(t, repeated, c.op)
		o := applyOne(t, once, c.op)
		if r.Hash() != o.Hash() {
			t.Errorf("%s: patched hashes %s and %s differ", c.op.Op, r.Hash(), o.Hash())
		}
		if !c.changes && r.Hash() != repeated.Hash() {
			t.Errorf("%s of a present edge changed the hash", c.op.Op)
		}
		if c.changes && len(r.Task(0).Succ(0)) != 0 {
			t.Errorf("%s kept the edge: Succ(0) = %v", c.op.Op, r.Task(0).Succ(0))
		}
	}
}

func TestPatchTiming(t *testing.T) {
	ts := patchBase(t)
	out := applyOne(t, ts, PatchOp{Op: OpSetPeriod, Task: 0, Value: 1500 * rt.Microsecond})
	if got := out.Task(0).Period; got != 1500*rt.Microsecond {
		t.Errorf("patched period = %d", got)
	}
	out = applyOne(t, ts, PatchOp{Op: OpSetDeadline, Task: 0, Value: 800 * rt.Microsecond})
	if got := out.Task(0).Deadline; got != 800*rt.Microsecond {
		t.Errorf("patched deadline = %d", got)
	}
}

func TestPatchAddRemoveTask(t *testing.T) {
	ts := patchBase(t)
	nt := NewTask(7, 5000*rt.Microsecond, 5000*rt.Microsecond)
	nt.Priority = 9
	nt.AddVertex(100 * rt.Microsecond)
	out := applyOne(t, ts, PatchOp{Op: OpAddTask, NewTask: nt})
	if len(out.Tasks) != 3 {
		t.Fatalf("task count = %d, want 3", len(out.Tasks))
	}
	// Base priorities must survive the add verbatim.
	if out.Task(0).Priority != 2 || out.Task(1).Priority != 1 || out.Task(7).Priority != 9 {
		t.Errorf("priorities reshuffled: %d %d %d",
			out.Task(0).Priority, out.Task(1).Priority, out.Task(7).Priority)
	}

	out2 := applyOne(t, ts, PatchOp{Op: OpRemoveTask, Task: 0})
	if len(out2.Tasks) != 1 || out2.Tasks[0].ID != 1 {
		t.Fatalf("remove_task left %v", out2.Tasks)
	}
}

// TestPatchAssignsPrioritiesToClones pins that a patch leaving no explicit
// priority never writes its base: Finalize's rate-monotonic assignment
// lands in a clone, and the base keeps its priorities and its hash.
func TestPatchAssignsPrioritiesToClones(t *testing.T) {
	ts := NewTaskset(2, 0)
	for id, prio := range []rt.Priority{0, 5} {
		task := NewTask(rt.TaskID(id), 1000*rt.Microsecond, 1000*rt.Microsecond)
		task.Priority = prio
		task.AddVertex(10 * rt.Microsecond)
		ts.Add(task)
	}
	if err := ts.Finalize(); err != nil {
		t.Fatal(err)
	}
	h := ts.Hash()
	out := applyOne(t, ts, PatchOp{Op: OpRemoveTask, Task: 1})
	if ts.Hash() != h || ts.Task(0).Priority != 0 {
		t.Errorf("base mutated: task 0 priority %d, hash changed %v", ts.Task(0).Priority, ts.Hash() != h)
	}
	if out.Task(0) == ts.Task(0) {
		t.Error("patched set shares the task whose priority it assigned")
	}
	if got := out.Task(0).Priority; got != 1 {
		t.Errorf("patched task 0 priority %d, want the rate-monotonic 1", got)
	}
}

func TestPatchErrors(t *testing.T) {
	ts := patchBase(t)
	cases := []struct {
		op   PatchOp
		code string
	}{
		{PatchOp{Op: "warp_time", Task: 0}, "unknown_op"},
		{PatchOp{Op: OpSetWCET, Task: 9, Vertex: 0, Value: 1}, "unknown_task"},
		{PatchOp{Op: OpSetWCET, Task: 0, Vertex: 99, Value: 1}, "unknown_vertex"},
		{PatchOp{Op: OpSetWCET, Task: 0, Vertex: 0, Value: 0}, "bad_value"},
		{PatchOp{Op: OpSetWCET, Task: 0, Vertex: 1, Value: 1}, "finalize"}, // below CS work
		{PatchOp{Op: OpSetCSLen, Task: 0, Resource: 5, Value: 1}, "unknown_resource"},
		{PatchOp{Op: OpSetCSLen, Task: 0, Resource: 0, Value: -1}, "bad_value"},
		{PatchOp{Op: OpSetRequest, Task: 0, Vertex: 1, Resource: 0, Count: -1}, "bad_value"},
		{PatchOp{Op: OpAddEdge, Task: 0, From: 1, To: 1}, "bad_value"},
		{PatchOp{Op: OpAddEdge, Task: 0, From: 2, To: 0}, "finalize"}, // cycle
		{PatchOp{Op: OpRemoveEdge, Task: 0, From: 2, To: 0}, "unknown_edge"},
		{PatchOp{Op: OpSetPeriod, Task: 0, Value: 0}, "bad_value"},
		{PatchOp{Op: OpSetDeadline, Task: 0, Value: 1500 * rt.Microsecond}, "finalize"}, // deadline > period
		{PatchOp{Op: OpAddTask}, "bad_value"},
		{PatchOp{Op: OpRemoveTask, Task: 42}, "unknown_task"},
	}
	for _, c := range cases {
		_, _, err := ApplyPatch(ts, Patch{Ops: []PatchOp{c.op}})
		perr, ok := err.(*PatchError)
		if !ok {
			t.Errorf("op %+v: got %v, want *PatchError(%s)", c.op, err, c.code)
			continue
		}
		if perr.Code != c.code {
			t.Errorf("op %+v: code = %q, want %q", c.op, perr.Code, c.code)
		}
	}

	// Duplicate added ID.
	nt := NewTask(0, 1000*rt.Microsecond, 1000*rt.Microsecond)
	nt.AddVertex(1)
	_, _, err := ApplyPatch(ts, Patch{Ops: []PatchOp{{Op: OpAddTask, NewTask: nt}}})
	if perr, ok := err.(*PatchError); !ok || perr.Code != "duplicate_task" {
		t.Errorf("duplicate add: got %v, want duplicate_task", err)
	}
}

// TestPatchAddTaskUnsortedRequests: an added task whose profile is out of
// resource order or names a resource twice fails as Finalize fails on the
// task itself, rather than being sorted and merged by the edit.
func TestPatchAddTaskUnsortedRequests(t *testing.T) {
	ts := patchBase(t)
	for _, rs := range []Requests{{{1, 1}, {0, 1}}, {{0, 1}, {0, 2}}} {
		nt := NewTask(7, 5000*rt.Microsecond, 5000*rt.Microsecond)
		nt.Priority = 9
		nt.AddVertex(100 * rt.Microsecond)
		nt.Vertices[0].Requests = rs
		_, _, err := ApplyPatch(ts, Patch{Ops: []PatchOp{{Op: OpAddTask, NewTask: nt}}})
		perr, ok := err.(*PatchError)
		if !ok || perr.Code != "finalize" || perr.Msg != "model: task 7 vertex 0 requests are not sorted by resource" {
			t.Errorf("profile %v: got %v, want the finalize not-sorted error", rs, err)
		}
	}
}

// TestPatchLargeProfileNotQuadratic: set_request ops cost O(1) each
// whatever order they set resources in.
func TestPatchLargeProfileNotQuadratic(t *testing.T) {
	const k = 100_000
	task := NewTask(0, 1000*rt.Microsecond, 1000*rt.Microsecond)
	task.AddVertex(1000 * rt.Microsecond)
	ts := &Taskset{Tasks: []*Task{task}, NumResources: k, NumProcs: 2}
	if err := ts.Finalize(); err != nil {
		t.Fatal(err)
	}
	var p Patch
	for q := k - 1; q >= 0; q-- {
		p.Ops = append(p.Ops, PatchOp{Op: OpSetRequest, Task: 0, Vertex: 0, Resource: rt.ResourceID(q), Count: 1})
	}
	var out *Taskset
	d, ok := withinBudget(largeProfileBudget, func() {
		var err error
		if out, _, err = ApplyPatch(ts, p); err != nil {
			t.Fatal(err)
		}
	})
	if !ok {
		t.Fatalf("%d set_request ops in descending resource order took %v, over the %v budget", k, d, largeProfileBudget)
	}
	if rs := out.Tasks[0].Vertices[0].Requests; len(rs) != k || !rs.sorted() {
		t.Fatalf("patched profile of %d entries, sorted=%v, want %d sorted", len(rs), rs.sorted(), k)
	}
}

// TestPatchEquivalentToDirectConstruction pins the hash contract the
// server's cache relies on: patching a base must produce the same content
// address as building the patched taskset from scratch.
func TestPatchEquivalentToDirectConstruction(t *testing.T) {
	ts := patchBase(t)
	out := applyOne(t, ts, PatchOp{Op: OpSetWCET, Task: 1, Vertex: 1, Value: 175 * rt.Microsecond})

	direct := NewTaskset(4, 2)
	a := NewTask(0, 1000*rt.Microsecond, 900*rt.Microsecond)
	a.Priority = 2
	a.AddVertex(100 * rt.Microsecond)
	a.AddVertex(50 * rt.Microsecond)
	a.AddVertex(80 * rt.Microsecond)
	a.AddEdge(0, 1)
	a.AddEdge(1, 2)
	a.AddRequest(1, 0, 2, 5*rt.Microsecond)
	direct.Add(a)
	b := NewTask(1, 2000*rt.Microsecond, 2000*rt.Microsecond)
	b.Priority = 1
	b.AddVertex(200 * rt.Microsecond)
	b.AddVertex(175 * rt.Microsecond)
	b.AddRequest(0, 0, 1, 10*rt.Microsecond)
	b.AddRequest(1, 1, 3, 4*rt.Microsecond)
	direct.Add(b)
	if err := direct.Finalize(); err != nil {
		t.Fatal(err)
	}
	if out.Hash() != direct.Hash() {
		t.Fatalf("patched hash %s != directly built hash %s", out.Hash(), direct.Hash())
	}
}

func TestPatchAtomicity(t *testing.T) {
	ts := patchBase(t)
	before := ts.Hash()
	// Valid op followed by an invalid one: no partial result, base intact.
	_, _, err := ApplyPatch(ts, Patch{Ops: []PatchOp{
		{Op: OpSetWCET, Task: 0, Vertex: 0, Value: 500 * rt.Microsecond},
		{Op: OpSetWCET, Task: 9, Vertex: 0, Value: 1},
	}})
	if err == nil {
		t.Fatal("invalid second op accepted")
	}
	if ts.Hash() != before {
		t.Fatal("failed patch mutated the base taskset")
	}
}
