package model

import (
	"fmt"
	"slices"

	"dpcpp/internal/rt"
)

// Patch is a canonical description of a taskset edit: an ordered list of
// operations applied atomically by ApplyPatch. Patches are the unit of the
// what-if analysis (internal/analysis.Delta and the server's POST
// /v1/analyze/delta): the patched taskset's canonical hash is the
// patch-aware cache key, so a delta result and a from-scratch analysis of
// the same edited taskset share the content-addressed result cache.
type Patch struct {
	Ops []PatchOp `json:"ops"`
}

// Patch op names. Each op edits one task (or adds/removes one); unknown
// names are rejected by ApplyPatch.
const (
	// OpSetWCET sets vertex Vertex of task Task to WCET Value.
	OpSetWCET = "set_wcet"
	// OpSetCSLen sets task Task's critical-section length on Resource to
	// Value.
	OpSetCSLen = "set_cslen"
	// OpSetRequest sets the request count of vertex Vertex of task Task on
	// Resource to Count.
	OpSetRequest = "set_request"
	// OpAddEdge adds the precedence edge From -> To to task Task; adding
	// an edge the task already has changes nothing.
	OpAddEdge = "add_edge"
	// OpRemoveEdge removes the edge From -> To, every copy of it when the
	// task lists it more than once.
	OpRemoveEdge = "remove_edge"
	// OpSetPeriod sets task Task's period to Value.
	OpSetPeriod = "set_period"
	// OpSetDeadline sets task Task's deadline to Value.
	OpSetDeadline = "set_deadline"
	// OpAddTask adds a copy of NewTask (a complete, unfinalized task
	// document, which ApplyPatch leaves untouched) to the set. Its ID must
	// be unused; its priority must be unique; Finalize validates it as it
	// validates a decoded task.
	OpAddTask = "add_task"
	// OpRemoveTask removes task Task from the set.
	OpRemoveTask = "remove_task"
)

// PatchOp is one edit. Which fields are meaningful depends on Op; see the
// op constants. Unused fields must be zero.
type PatchOp struct {
	Op       string        `json:"op"`
	Task     rt.TaskID     `json:"task,omitempty"`
	Vertex   rt.VertexID   `json:"vertex,omitempty"`
	Resource rt.ResourceID `json:"resource,omitempty"`
	From     rt.VertexID   `json:"from,omitempty"`
	To       rt.VertexID   `json:"to,omitempty"`
	Value    rt.Time       `json:"value,omitempty"`
	Count    int           `json:"count,omitempty"`
	NewTask  *Task         `json:"new_task,omitempty"`
}

// PatchError reports a rejected patch: the offending op index, a stable
// machine-readable code, and a human-readable message. The server surfaces
// it as a structured 400.
type PatchError struct {
	Op   int    `json:"op"`   // index into Patch.Ops, -1 for patch-level errors
	Code string `json:"code"` // "unknown_op", "unknown_task", "unknown_vertex", "unknown_resource", "bad_value", "unknown_edge", "duplicate_task", "finalize"
	Msg  string `json:"msg"`
}

func (e *PatchError) Error() string {
	if e.Op < 0 {
		return fmt.Sprintf("patch: %s: %s", e.Code, e.Msg)
	}
	return fmt.Sprintf("patch op %d: %s: %s", e.Op, e.Code, e.Msg)
}

func patchErr(op int, code, format string, args ...any) *PatchError {
	return &PatchError{Op: op, Code: code, Msg: fmt.Sprintf(format, args...)}
}

// PatchDelta is empty: nothing reads which tasks a patch changed, since a
// patched taskset is analyzed in full. It stays because perfbench compiles
// against ApplyPatch's three results and Delta.ApplyTo's parameter.
type PatchDelta struct{}

// patchEnt is one slot of the patched task list. task is a shared pointer
// into the base set until an op first touches it, and from then on an
// unfinalized Clone that the ops write directly. set_request alone writes
// through reqs, a per-vertex overlay that seal merges into each touched
// profile once, so k set_request ops cost O(k) however large the profile
// and in whatever resource order they come.
type patchEnt struct {
	task   *Task
	cloned bool
	reqs   map[rt.VertexID]map[rt.ResourceID]int
}

// count returns vertex x's request count on q, overlay included.
func (e *patchEnt) count(x rt.VertexID, q rt.ResourceID) int {
	if n, ok := e.reqs[x][q]; ok {
		return n
	}
	return e.task.Vertices[x].Requests.Count(q)
}

// setRequest sets vertex x's request count on q to n. Setting the count
// the vertex already has writes nothing, so the vertex keeps its profile
// as it is, zero-count entries included, and its JSON bytes with it.
func (e *patchEnt) setRequest(x rt.VertexID, q rt.ResourceID, n int) {
	if n == e.count(x, q) {
		return
	}
	if e.reqs == nil {
		e.reqs = make(map[rt.VertexID]map[rt.ResourceID]int)
	}
	if e.reqs[x] == nil {
		e.reqs[x] = make(map[rt.ResourceID]int)
	}
	e.reqs[x][q] = n
}

// seal merges the request overlay into the edited task's profiles.
func (e *patchEnt) seal() *Task {
	for x, over := range e.reqs {
		v := e.task.Vertices[x]
		v.Requests = v.Requests.with(over)
	}
	return e.task
}

// ApplyPatch applies p to the finalized base taskset and returns a fresh,
// finalized taskset. The base is never mutated, and neither is the patch.
// Tasks no op touches are shared by pointer with the base: a finalized
// Task is immutable, so sharing is safe and spares copying them. Each
// touched task is a Clone the ops write, and an added task a Clone of its
// document; Finalize validates both, as it validates a decoded taskset.
// Explicit priorities are preserved verbatim, so patching never reshuffles
// the priority order of untouched tasks. A finalized set may still hold
// one task of priority 0 beside explicit ones; when a patch leaves only
// such tasks, Finalize assigns rate-monotonic priorities to clones, and
// the base keeps its own. The PatchDelta result is always empty.
//
// Invalid patches — unknown op names or task/vertex/resource/edge targets,
// negative values, duplicate added IDs, or edits whose result fails
// Finalize (cycles, CS exceeding WCET, deadline > period, duplicate
// priorities, ...) — return a *PatchError and leave no partial result.
func ApplyPatch(ts *Taskset, p Patch) (*Taskset, *PatchDelta, error) {
	ts.mustFinal()
	ents := make([]*patchEnt, 0, len(ts.Tasks))
	index := make(map[rt.TaskID]*patchEnt, len(ts.Tasks))
	for _, t := range ts.Tasks {
		e := &patchEnt{task: t}
		ents = append(ents, e)
		index[t.ID] = e
	}

	// taskOf returns op's task, cloned for editing on first touch.
	taskOf := func(i int, op *PatchOp) (*patchEnt, *Task, *PatchError) {
		e, ok := index[op.Task]
		if !ok {
			return nil, nil, patchErr(i, "unknown_task", "taskset has no task %d", op.Task)
		}
		if !e.cloned {
			e.task, e.cloned = e.task.Clone(), true
		}
		return e, e.task, nil
	}
	vertexOf := func(i int, t *Task, x rt.VertexID) *PatchError {
		if x < 0 || int(x) >= len(t.Vertices) {
			return patchErr(i, "unknown_vertex", "task %d has no vertex %d", t.ID, x)
		}
		return nil
	}
	resourceOf := func(i int, op *PatchOp) *PatchError {
		if op.Resource < 0 || int(op.Resource) >= ts.NumResources {
			return patchErr(i, "unknown_resource", "taskset has no resource %d", op.Resource)
		}
		return nil
	}

	for i := range p.Ops {
		op := &p.Ops[i]
		switch op.Op {
		case OpSetWCET:
			if _, ok := index[op.Task]; !ok {
				return nil, nil, patchErr(i, "unknown_task", "taskset has no task %d", op.Task)
			}
			if op.Value <= 0 {
				return nil, nil, patchErr(i, "bad_value", "vertex WCET must be positive, got %d", op.Value)
			}
			_, t, _ := taskOf(i, op)
			if perr := vertexOf(i, t, op.Vertex); perr != nil {
				return nil, nil, perr
			}
			t.Vertices[op.Vertex].WCET = op.Value
		case OpSetCSLen:
			_, t, perr := taskOf(i, op)
			if perr != nil {
				return nil, nil, perr
			}
			if perr := resourceOf(i, op); perr != nil {
				return nil, nil, perr
			}
			if op.Value < 0 {
				return nil, nil, patchErr(i, "bad_value", "CS length must be non-negative, got %d", op.Value)
			}
			for int(op.Resource) >= len(t.CSLen) {
				t.CSLen = append(t.CSLen, 0)
			}
			t.CSLen[op.Resource] = op.Value
		case OpSetRequest:
			e, t, perr := taskOf(i, op)
			if perr != nil {
				return nil, nil, perr
			}
			if perr := vertexOf(i, t, op.Vertex); perr != nil {
				return nil, nil, perr
			}
			if perr := resourceOf(i, op); perr != nil {
				return nil, nil, perr
			}
			if op.Count < 0 {
				return nil, nil, patchErr(i, "bad_value", "request count must be non-negative, got %d", op.Count)
			}
			e.setRequest(op.Vertex, op.Resource, op.Count)
		case OpAddEdge:
			_, t, perr := taskOf(i, op)
			if perr != nil {
				return nil, nil, perr
			}
			if perr := vertexOf(i, t, op.From); perr != nil {
				return nil, nil, perr
			}
			if perr := vertexOf(i, t, op.To); perr != nil {
				return nil, nil, perr
			}
			if op.From == op.To {
				return nil, nil, patchErr(i, "bad_value", "edge (%d,%d) is a self-loop", op.From, op.To)
			}
			// A repeated edge is the same precedence constraint.
			ed := Edge{From: op.From, To: op.To}
			if !slices.Contains(t.Edges, ed) {
				t.Edges = append(t.Edges, ed)
			}
		case OpRemoveEdge:
			_, t, perr := taskOf(i, op)
			if perr != nil {
				return nil, nil, perr
			}
			// Every copy goes: the constraint is one however often listed.
			ed := Edge{From: op.From, To: op.To}
			n := len(t.Edges)
			t.Edges = slices.DeleteFunc(t.Edges, func(e Edge) bool { return e == ed })
			if len(t.Edges) == n {
				return nil, nil, patchErr(i, "unknown_edge", "task %d has no edge (%d,%d)", t.ID, op.From, op.To)
			}
		case OpSetPeriod:
			_, t, perr := taskOf(i, op)
			if perr != nil {
				return nil, nil, perr
			}
			if op.Value <= 0 {
				return nil, nil, patchErr(i, "bad_value", "period must be positive, got %d", op.Value)
			}
			t.Period = op.Value
		case OpSetDeadline:
			_, t, perr := taskOf(i, op)
			if perr != nil {
				return nil, nil, perr
			}
			if op.Value <= 0 {
				return nil, nil, patchErr(i, "bad_value", "deadline must be positive, got %d", op.Value)
			}
			t.Deadline = op.Value
		case OpAddTask:
			if op.NewTask == nil {
				return nil, nil, patchErr(i, "bad_value", "add_task needs a new_task document")
			}
			if _, dup := index[op.NewTask.ID]; dup {
				return nil, nil, patchErr(i, "duplicate_task", "taskset already has task %d", op.NewTask.ID)
			}
			// Later ops write through the vertices, so none may be null.
			if slices.Contains(op.NewTask.Vertices, nil) {
				return nil, nil, patchErr(i, "bad_value", "new task %d has a null vertex", op.NewTask.ID)
			}
			e := &patchEnt{task: op.NewTask.Clone(), cloned: true}
			ents = append(ents, e)
			index[e.task.ID] = e
		case OpRemoveTask:
			e, ok := index[op.Task]
			if !ok {
				return nil, nil, patchErr(i, "unknown_task", "taskset has no task %d", op.Task)
			}
			ents = slices.DeleteFunc(ents, func(c *patchEnt) bool { return c == e })
			delete(index, op.Task)
		default:
			return nil, nil, patchErr(i, "unknown_op", "unknown op %q", op.Op)
		}
	}

	// With no explicit priority left, Finalize writes rate-monotonic
	// priorities into every task, so none may still be a base task's
	// shared pointer. A finalized base holds at most one priority-0 task,
	// so this happens only when the patch removes every task with an
	// explicit priority.
	if !slices.ContainsFunc(ents, func(e *patchEnt) bool { return e.task.Priority != 0 }) {
		for _, e := range ents {
			if !e.cloned {
				e.task, e.cloned = e.task.Clone(), true
			}
		}
	}
	out := NewTaskset(ts.NumProcs, ts.NumResources)
	out.Tasks = make([]*Task, len(ents))
	for k, e := range ents {
		out.Tasks[k] = e.seal()
	}
	if err := out.Finalize(); err != nil {
		return nil, nil, &PatchError{Op: -1, Code: "finalize", Msg: err.Error()}
	}
	return out, &PatchDelta{}, nil
}
