package model

import (
	"fmt"
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
	// OpAddEdge adds the precedence edge From -> To to task Task.
	OpAddEdge = "add_edge"
	// OpRemoveEdge removes one occurrence of the edge From -> To.
	OpRemoveEdge = "remove_edge"
	// OpSetPeriod sets task Task's period to Value.
	OpSetPeriod = "set_period"
	// OpSetDeadline sets task Task's deadline to Value.
	OpSetDeadline = "set_deadline"
	// OpAddTask adds NewTask (a complete, unfinalized task document) to the
	// set. Its ID must be unused; its priority must be unique.
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

// taskEdit is an editable deep copy of one finalized task, mirroring the
// shrinker's spec representation: plain values only, so ops mutate freely
// and build() reconstructs a fresh Task through the normal constructor
// path (NewTask / AddVertex / AddEdge plus direct request-map and CSLen
// writes), which Finalize then re-validates.
type taskEdit struct {
	id       rt.TaskID
	period   rt.Time
	deadline rt.Time
	priority rt.Priority
	name     string
	wcet     []rt.Time
	reqs     []map[rt.ResourceID]int
	edges    [][2]rt.VertexID
	cs       map[rt.ResourceID]rt.Time
}

func editOf(t *Task) *taskEdit {
	e := &taskEdit{
		id:       t.ID,
		period:   t.Period,
		deadline: t.Deadline,
		priority: t.Priority,
		name:     t.Name,
		wcet:     make([]rt.Time, len(t.Vertices)),
		reqs:     make([]map[rt.ResourceID]int, len(t.Vertices)),
		cs:       make(map[rt.ResourceID]rt.Time),
	}
	for x, v := range t.Vertices {
		e.wcet[x] = v.WCET
		if len(v.Requests) > 0 {
			m := make(map[rt.ResourceID]int, len(v.Requests))
			for q, n := range v.Requests {
				if n > 0 {
					m[q] = n
				}
			}
			e.reqs[x] = m
		}
	}
	for _, ed := range t.Edges {
		e.edges = append(e.edges, [2]rt.VertexID{ed.From, ed.To})
	}
	for q, l := range t.CSLen {
		if l != 0 {
			e.cs[rt.ResourceID(q)] = l
		}
	}
	return e
}

func (e *taskEdit) build() *Task {
	t := NewTask(e.id, e.period, e.deadline)
	t.Priority = e.priority
	t.Name = e.name
	for x, w := range e.wcet {
		t.AddVertex(w)
		if m := e.reqs[x]; len(m) > 0 {
			v := t.Vertices[x]
			v.Requests = make(map[rt.ResourceID]int, len(m))
			for q, n := range m {
				v.Requests[q] = n
			}
		}
	}
	for _, ed := range e.edges {
		t.AddEdge(ed[0], ed[1])
	}
	qs := make([]rt.ResourceID, 0, len(e.cs))
	for q := range e.cs {
		qs = append(qs, q)
	}
	sort.Slice(qs, func(a, b int) bool { return qs[a] < qs[b] })
	for _, q := range qs {
		t.setCSLen(q, e.cs[q])
	}
	return t
}

// cloneWithWCETs returns a finalized copy of t with per-vertex WCET
// overrides applied. This is the fast path for the most common what-if
// query — "what if this vertex ran longer/shorter?" — where the DAG,
// request profile and critical sections are untouched: the clone shares
// every structural derived field (topology, predecessor/successor lists,
// request totals, per-vertex request maps) with the immutable base and
// recomputes only the WCET sum, the canonical body and the path bounds
// (whose lengths, L*_i among them, move with the WCETs).
// The only validation a WCET edit can invalidate is L_{i,q}-work fitting
// inside the vertex, which is re-checked here with Finalize's error text.
func (t *Task) cloneWithWCETs(over map[rt.VertexID]rt.Time) (*Task, error) {
	nt := &Task{
		ID:       t.ID,
		Name:     t.Name,
		Period:   t.Period,
		Deadline: t.Deadline,
		Priority: t.Priority,
		Edges:    t.Edges,
		CSLen:    t.CSLen,

		finalized: true,
		topo:      t.topo,
		succ:      t.succ,
		pred:      t.pred,
		nReq:      t.nReq,
		heads:     t.heads,
		tails:     t.tails,
	}
	nt.Vertices = make([]*Vertex, len(t.Vertices))
	copy(nt.Vertices, t.Vertices)
	// Vertex-indexed so the first reported violation is deterministic.
	for x := range nt.Vertices {
		w, ok := over[rt.VertexID(x)]
		if !ok {
			continue
		}
		v := t.Vertices[x]
		var cs rt.Time
		for q, c := range v.Requests {
			cs += rt.SatMul(int64(c), t.CSLen[q])
		}
		if cs > w {
			return nil, fmt.Errorf("model: task %d vertex %d: critical sections (%d) exceed WCET (%d)",
				t.ID, v.ID, cs, w)
		}
		nt.Vertices[x] = &Vertex{ID: v.ID, WCET: w, Requests: v.Requests}
	}
	nt.wcet = 0
	for _, v := range nt.Vertices {
		nt.wcet = rt.SatAdd(nt.wcet, v.WCET)
	}
	// Only WCET digits change, so the base's body plus 20 bytes (the widest
	// int64) per override always fits: one allocation instead of a growth
	// series.
	nt.canon = nt.appendCanonBody(make([]byte, 0, len(t.canon)+20*len(over)))
	nt.bounds = nt.computePathBounds()
	return nt, nil
}

// usesResource reports whether the edited task requests q anywhere.
func (e *taskEdit) usesResource(q rt.ResourceID) bool {
	for _, m := range e.reqs {
		if m[q] > 0 {
			return true
		}
	}
	return false
}

// patchEnt is one slot of the patched task list: a shared pointer into the
// base set until an op first touches the task. WCET-only edits accumulate
// in wcetOver and resolve through the cloneWithWCETs fast path; any
// structural op materializes a full taskEdit (folding pending overrides
// in) and the task is rebuilt through the constructor path instead.
type patchEnt struct {
	base     *Task     // nil for tasks added by the patch
	edit     *taskEdit // nil while the task needs no full rebuild
	wcetOver map[rt.VertexID]rt.Time
}

// ApplyPatch applies p to the finalized base taskset and returns a fresh,
// finalized taskset plus the precise per-task change classification. The
// base is never mutated. Tasks no op touches are shared by pointer with the
// base — a finalized Task is immutable, so sharing is safe and makes patch
// application (and hashing the result) proportional to the edit, not the
// taskset. Touched tasks are rebuilt from plain-value copies through the
// normal constructor path. Explicit base priorities are preserved verbatim
// (a finalized taskset always carries them), so patching never reshuffles
// the priority order of untouched tasks.
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
		e := &patchEnt{base: t}
		ents = append(ents, e)
		index[t.ID] = e
	}
	delta := &PatchDelta{Changed: make(map[rt.TaskID]Change)}
	mark := func(id rt.TaskID, c Change) {
		delta.Changed[id] |= c
	}

	taskOf := func(i int, op *PatchOp) (*taskEdit, *PatchError) {
		ent, ok := index[op.Task]
		if !ok {
			return nil, patchErr(i, "unknown_task", "taskset has no task %d", op.Task)
		}
		if ent.edit == nil {
			ent.edit = editOf(ent.base)
			for x, w := range ent.wcetOver {
				ent.edit.wcet[x] = w
			}
			ent.wcetOver = nil
		}
		return ent.edit, nil
	}
	vertexOf := func(i int, op *PatchOp, e *taskEdit, x rt.VertexID) *PatchError {
		if x < 0 || int(x) >= len(e.wcet) {
			return patchErr(i, "unknown_vertex", "task %d has no vertex %d", e.id, x)
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
			ent, ok := index[op.Task]
			if !ok {
				return nil, nil, patchErr(i, "unknown_task", "taskset has no task %d", op.Task)
			}
			if op.Value <= 0 {
				return nil, nil, patchErr(i, "bad_value", "vertex WCET must be positive, got %d", op.Value)
			}
			var old rt.Time
			switch {
			case ent.edit != nil:
				if perr := vertexOf(i, op, ent.edit, op.Vertex); perr != nil {
					return nil, nil, perr
				}
				old = ent.edit.wcet[op.Vertex]
				ent.edit.wcet[op.Vertex] = op.Value
			default:
				if op.Vertex < 0 || int(op.Vertex) >= len(ent.base.Vertices) {
					return nil, nil, patchErr(i, "unknown_vertex", "task %d has no vertex %d", op.Task, op.Vertex)
				}
				var seen bool
				if old, seen = ent.wcetOver[op.Vertex]; !seen {
					old = ent.base.Vertices[op.Vertex].WCET
				}
				if ent.wcetOver == nil {
					ent.wcetOver = make(map[rt.VertexID]rt.Time, 1)
				}
				ent.wcetOver[op.Vertex] = op.Value
			}
			if op.Value > old {
				mark(op.Task, ChangeWCETUp)
			} else if op.Value < old {
				mark(op.Task, ChangeWCETDown)
			}
		case OpSetCSLen:
			e, perr := taskOf(i, op)
			if perr != nil {
				return nil, nil, perr
			}
			if perr := resourceOf(i, op); perr != nil {
				return nil, nil, perr
			}
			if op.Value < 0 {
				return nil, nil, patchErr(i, "bad_value", "CS length must be non-negative, got %d", op.Value)
			}
			old := e.cs[op.Resource]
			if op.Value == 0 {
				delete(e.cs, op.Resource)
			} else {
				e.cs[op.Resource] = op.Value
			}
			if op.Value > old {
				mark(e.id, ChangeCSUp)
			} else if op.Value < old {
				mark(e.id, ChangeCSDown)
			}
		case OpSetRequest:
			e, perr := taskOf(i, op)
			if perr != nil {
				return nil, nil, perr
			}
			if perr := vertexOf(i, op, e, op.Vertex); perr != nil {
				return nil, nil, perr
			}
			if perr := resourceOf(i, op); perr != nil {
				return nil, nil, perr
			}
			if op.Count < 0 {
				return nil, nil, patchErr(i, "bad_value", "request count must be non-negative, got %d", op.Count)
			}
			usedBefore := e.usesResource(op.Resource)
			old := 0
			if m := e.reqs[op.Vertex]; m != nil {
				old = m[op.Resource]
			}
			if op.Count == 0 {
				delete(e.reqs[op.Vertex], op.Resource)
			} else {
				if e.reqs[op.Vertex] == nil {
					e.reqs[op.Vertex] = make(map[rt.ResourceID]int)
				}
				e.reqs[op.Vertex][op.Resource] = op.Count
			}
			if op.Count != old {
				if e.usesResource(op.Resource) != usedBefore {
					mark(e.id, ChangeSharers)
				} else if op.Count > old {
					mark(e.id, ChangeReqUp)
				} else {
					mark(e.id, ChangeReqDown)
				}
			}
		case OpAddEdge:
			e, perr := taskOf(i, op)
			if perr != nil {
				return nil, nil, perr
			}
			if perr := vertexOf(i, op, e, op.From); perr != nil {
				return nil, nil, perr
			}
			if perr := vertexOf(i, op, e, op.To); perr != nil {
				return nil, nil, perr
			}
			if op.From == op.To {
				return nil, nil, patchErr(i, "bad_value", "edge (%d,%d) is a self-loop", op.From, op.To)
			}
			e.edges = append(e.edges, [2]rt.VertexID{op.From, op.To})
			mark(e.id, ChangeEdges)
		case OpRemoveEdge:
			e, perr := taskOf(i, op)
			if perr != nil {
				return nil, nil, perr
			}
			found := false
			for j, ed := range e.edges {
				if ed[0] == op.From && ed[1] == op.To {
					e.edges = append(e.edges[:j], e.edges[j+1:]...)
					found = true
					break
				}
			}
			if !found {
				return nil, nil, patchErr(i, "unknown_edge", "task %d has no edge (%d,%d)", e.id, op.From, op.To)
			}
			mark(e.id, ChangeEdges)
		case OpSetPeriod:
			e, perr := taskOf(i, op)
			if perr != nil {
				return nil, nil, perr
			}
			if op.Value <= 0 {
				return nil, nil, patchErr(i, "bad_value", "period must be positive, got %d", op.Value)
			}
			if op.Value != e.period {
				e.period = op.Value
				mark(e.id, ChangePeriod)
			}
		case OpSetDeadline:
			e, perr := taskOf(i, op)
			if perr != nil {
				return nil, nil, perr
			}
			if op.Value <= 0 {
				return nil, nil, patchErr(i, "bad_value", "deadline must be positive, got %d", op.Value)
			}
			if op.Value != e.deadline {
				e.deadline = op.Value
				mark(e.id, ChangeDeadline)
			}
		case OpAddTask:
			if op.NewTask == nil {
				return nil, nil, patchErr(i, "bad_value", "add_task needs a new_task document")
			}
			if _, dup := index[op.NewTask.ID]; dup {
				return nil, nil, patchErr(i, "duplicate_task", "taskset already has task %d", op.NewTask.ID)
			}
			// Copy through an unfinalized shallow Task so the edit owns its
			// structure; build()+Finalize re-validate everything about it.
			nt := op.NewTask
			e := &taskEdit{
				id:       nt.ID,
				period:   nt.Period,
				deadline: nt.Deadline,
				priority: nt.Priority,
				name:     nt.Name,
				wcet:     make([]rt.Time, len(nt.Vertices)),
				reqs:     make([]map[rt.ResourceID]int, len(nt.Vertices)),
				cs:       make(map[rt.ResourceID]rt.Time),
			}
			for x, v := range nt.Vertices {
				if v == nil {
					return nil, nil, patchErr(i, "bad_value", "new task %d has a null vertex", nt.ID)
				}
				e.wcet[x] = v.WCET
				if len(v.Requests) > 0 {
					m := make(map[rt.ResourceID]int, len(v.Requests))
					for q, n := range v.Requests {
						m[q] = n
					}
					e.reqs[x] = m
				}
			}
			for _, ed := range nt.Edges {
				e.edges = append(e.edges, [2]rt.VertexID{ed.From, ed.To})
			}
			for q, l := range nt.CSLen {
				if l < 0 {
					return nil, nil, patchErr(i, "bad_value", "new task %d has negative CS length on resource %d", nt.ID, q)
				}
				if l != 0 {
					e.cs[rt.ResourceID(q)] = l
				}
			}
			ent := &patchEnt{edit: e}
			ents = append(ents, ent)
			index[e.id] = ent
			mark(e.id, ChangeAdded)
		case OpRemoveTask:
			ent, ok := index[op.Task]
			if !ok {
				return nil, nil, patchErr(i, "unknown_task", "taskset has no task %d", op.Task)
			}
			for j, cand := range ents {
				if cand == ent {
					ents = append(ents[:j], ents[j+1:]...)
					break
				}
			}
			delete(index, op.Task)
			mark(op.Task, ChangeRemoved)
		default:
			return nil, nil, patchErr(i, "unknown_op", "unknown op %q", op.Op)
		}
	}

	out := NewTaskset(ts.NumProcs, ts.NumResources)
	for _, ent := range ents {
		switch {
		case ent.edit != nil:
			out.Add(ent.edit.build())
		case ent.wcetOver != nil:
			nt, err := ent.base.cloneWithWCETs(ent.wcetOver)
			if err != nil {
				return nil, nil, &PatchError{Op: -1, Code: "finalize", Msg: err.Error()}
			}
			out.Add(nt)
		default:
			out.Add(ent.base)
		}
	}
	if err := out.Finalize(); err != nil {
		return nil, nil, &PatchError{Op: -1, Code: "finalize", Msg: err.Error()}
	}
	return out, delta, nil
}
