package model

import (
	"fmt"
	"slices"
	"sort"

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

// Change is a bitmask classifying how a patch touched one task. The bits
// are precise in the sense that an op writing a value equal to the old one
// sets no bit.
type Change uint16

const (
	// ChangeWCETUp / ChangeWCETDown: some vertex WCET grew / shrank.
	ChangeWCETUp Change = 1 << iota
	ChangeWCETDown
	// ChangeEdges: the precedence graph changed.
	ChangeEdges
	// ChangeCSUp / ChangeCSDown: some critical-section length grew / shrank.
	ChangeCSUp
	ChangeCSDown
	// ChangeReqUp / ChangeReqDown: some request count grew / shrank while
	// staying positive on both sides.
	ChangeReqUp
	ChangeReqDown
	// ChangeSharers: a request count crossed zero (0 -> n or n -> 0), so the
	// task entered or left some resource's sharer set — the taskset-level
	// local/global classification and priority ceilings may have changed.
	ChangeSharers
	// ChangePeriod / ChangeDeadline: timing parameters changed.
	ChangePeriod
	ChangeDeadline
	// ChangeAdded / ChangeRemoved: the task itself appeared / disappeared.
	ChangeAdded
	ChangeRemoved
	// ChangePriority: no task of the patched set kept an explicit
	// priority, so Finalize assigned rate-monotonic ones, and every task
	// from the base got a new priority.
	ChangePriority
)

// PatchDelta is the precise changed-task set produced by ApplyPatch.
type PatchDelta struct {
	// Changed maps each touched task to its change bits. Tasks absent from
	// the map are bit-for-bit identical (including priority) in the base and
	// patched tasksets.
	Changed map[rt.TaskID]Change
}

// ChangedIDs returns the touched task IDs in ascending order.
func (d *PatchDelta) ChangedIDs() []rt.TaskID {
	ids := make([]rt.TaskID, 0, len(d.Changed))
	for id := range d.Changed {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// patchEnt is one slot of the patched task list. task is a shared pointer
// into the base set until an op first touches it, and from then on an
// unfinalized Clone that the ops write directly. set_request alone writes
// through reqs, a per-vertex overlay that seal merges into each touched
// profile once, so k set_request ops cost O(k) however large the profile
// and in whatever resource order they come. users counts, per resource,
// the vertices whose request count is positive, so that a set_request
// tells a sharer flip from a count change in O(1).
type patchEnt struct {
	task   *Task
	cloned bool
	reqs   map[rt.VertexID]map[rt.ResourceID]int
	users  map[rt.ResourceID]int
}

// count returns vertex x's request count on q, overlay included.
func (e *patchEnt) count(x rt.VertexID, q rt.ResourceID) int {
	if n, ok := e.reqs[x][q]; ok {
		return n
	}
	return e.task.Vertices[x].Requests.Count(q)
}

// setRequest sets vertex x's request count on q to n and classifies the
// change: a count crossing zero that makes the task start or stop using q
// is a sharer flip.
func (e *patchEnt) setRequest(x rt.VertexID, q rt.ResourceID, n int) Change {
	if e.users == nil {
		e.users = make(map[rt.ResourceID]int)
		for _, v := range e.task.Vertices {
			for _, r := range v.Requests {
				if r.Count > 0 {
					e.users[r.Resource]++
				}
			}
		}
		e.reqs = make(map[rt.VertexID]map[rt.ResourceID]int)
	}
	old := e.count(x, q)
	if n == old {
		return 0
	}
	if e.reqs[x] == nil {
		e.reqs[x] = make(map[rt.ResourceID]int)
	}
	e.reqs[x][q] = n
	usedBefore := e.users[q] > 0
	switch {
	case old == 0:
		e.users[q]++
	case n == 0:
		e.users[q]--
	}
	switch {
	case e.users[q] > 0 != usedBefore:
		return ChangeSharers
	case n > old:
		return ChangeReqUp
	default:
		return ChangeReqDown
	}
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
// finalized taskset plus the precise per-task change classification. The
// base is never mutated, and neither is the patch. Tasks no op touches are
// shared by pointer with the base — a finalized Task is immutable, so
// sharing is safe and makes patch application (and hashing the result)
// proportional to the edit, not the taskset. Each touched task is a Clone
// the ops write, and an added task a Clone of its document; Finalize
// validates both, as it validates a decoded taskset. Explicit priorities
// are preserved verbatim, so patching never reshuffles the priority order
// of untouched tasks. A finalized set may still hold one task of priority
// 0 beside explicit ones; when a patch leaves only such tasks, Finalize
// assigns rate-monotonic priorities to clones, marked ChangePriority, and
// the base keeps its own.
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
	delta := &PatchDelta{Changed: make(map[rt.TaskID]Change)}
	mark := func(id rt.TaskID, c Change) {
		if c != 0 {
			delta.Changed[id] |= c
		}
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
	// up returns upBit when v grows past old, downBit when it shrinks.
	up := func(v, old int64, upBit, downBit Change) Change {
		switch {
		case v > old:
			return upBit
		case v < old:
			return downBit
		}
		return 0
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
			v := t.Vertices[op.Vertex]
			mark(t.ID, up(op.Value, v.WCET, ChangeWCETUp, ChangeWCETDown))
			v.WCET = op.Value
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
			mark(t.ID, up(op.Value, t.CSLen[op.Resource], ChangeCSUp, ChangeCSDown))
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
			mark(t.ID, e.setRequest(op.Vertex, op.Resource, op.Count))
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
				mark(t.ID, ChangeEdges)
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
			mark(t.ID, ChangeEdges)
		case OpSetPeriod:
			_, t, perr := taskOf(i, op)
			if perr != nil {
				return nil, nil, perr
			}
			if op.Value <= 0 {
				return nil, nil, patchErr(i, "bad_value", "period must be positive, got %d", op.Value)
			}
			if op.Value != t.Period {
				t.Period = op.Value
				mark(t.ID, ChangePeriod)
			}
		case OpSetDeadline:
			_, t, perr := taskOf(i, op)
			if perr != nil {
				return nil, nil, perr
			}
			if op.Value <= 0 {
				return nil, nil, patchErr(i, "bad_value", "deadline must be positive, got %d", op.Value)
			}
			if op.Value != t.Deadline {
				t.Deadline = op.Value
				mark(t.ID, ChangeDeadline)
			}
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
			mark(e.task.ID, ChangeAdded)
		case OpRemoveTask:
			e, ok := index[op.Task]
			if !ok {
				return nil, nil, patchErr(i, "unknown_task", "taskset has no task %d", op.Task)
			}
			ents = slices.DeleteFunc(ents, func(c *patchEnt) bool { return c == e })
			delete(index, op.Task)
			mark(op.Task, ChangeRemoved)
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
			if delta.Changed[e.task.ID]&ChangeAdded == 0 {
				mark(e.task.ID, ChangePriority)
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
	return out, delta, nil
}
