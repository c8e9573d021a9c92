package model_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dpcpp/internal/model"
	"dpcpp/internal/rt"
	"dpcpp/internal/taskgen"
)

// oracleEdit is the map-based task edit that ApplyPatch once rebuilt every
// touched task from: plain values, one map per request profile and one for
// the CS lengths, turned back into a Task through the constructor path.
// It is kept here as an independent oracle for ApplyPatch, which now
// writes Task clones instead.
type oracleEdit struct {
	id       rt.TaskID
	period   rt.Time
	deadline rt.Time
	priority rt.Priority
	name     string
	wcet     []rt.Time
	reqs     []map[rt.ResourceID]int
	edges    []model.Edge
	cs       map[rt.ResourceID]rt.Time
}

func oracleEditOf(t *model.Task) *oracleEdit {
	e := &oracleEdit{
		id: t.ID, period: t.Period, deadline: t.Deadline, priority: t.Priority, name: t.Name,
		wcet:  make([]rt.Time, len(t.Vertices)),
		reqs:  make([]map[rt.ResourceID]int, len(t.Vertices)),
		edges: slices.Clone(t.Edges),
		cs:    make(map[rt.ResourceID]rt.Time),
	}
	for x, v := range t.Vertices {
		e.wcet[x] = v.WCET
		e.reqs[x] = make(map[rt.ResourceID]int, len(v.Requests))
		for _, r := range v.Requests {
			e.reqs[x][r.Resource] = r.Count
		}
	}
	for q, l := range t.CSLen {
		if l != 0 {
			e.cs[rt.ResourceID(q)] = l
		}
	}
	return e
}

func (e *oracleEdit) build() *model.Task {
	t := model.NewTask(e.id, e.period, e.deadline)
	t.Priority, t.Name = e.priority, e.name
	for x, w := range e.wcet {
		t.AddVertex(w)
		for q, n := range e.reqs[x] {
			if n > 0 {
				t.Vertices[x].Requests = append(t.Vertices[x].Requests, model.Request{Resource: q, Count: n})
			}
		}
		slices.SortFunc(t.Vertices[x].Requests, func(a, b model.Request) int { return int(a.Resource - b.Resource) })
	}
	t.Edges = e.edges
	for q, l := range e.cs {
		for int(q) >= len(t.CSLen) {
			t.CSLen = append(t.CSLen, 0)
		}
		t.CSLen[q] = l
	}
	return t
}

// oracleApply is ApplyPatch written over oracleEdit. It checks every op in
// the same order and with the same error codes. add_edge of an edge already
// present and remove_edge of a repeated edge follow the current contract:
// the first changes nothing, the second removes every copy. The documents
// randomOp adds are well-formed copies of generated tasks, so the oracle
// leaves their validation to Finalize alone.
func oracleApply(ts *model.Taskset, p model.Patch) (*model.Taskset, error) {
	type ent struct {
		base *model.Task
		edit *oracleEdit
	}
	var ents []*ent
	index := make(map[rt.TaskID]*ent)
	for _, t := range ts.Tasks {
		e := &ent{base: t}
		ents = append(ents, e)
		index[t.ID] = e
	}
	fail := func(i int, code string) (*model.Taskset, error) {
		return nil, &model.PatchError{Op: i, Code: code}
	}
	for i, op := range p.Ops {
		var e *oracleEdit
		switch op.Op {
		case model.OpSetWCET, model.OpSetCSLen, model.OpSetRequest, model.OpAddEdge,
			model.OpRemoveEdge, model.OpSetPeriod, model.OpSetDeadline:
			en, ok := index[op.Task]
			if !ok {
				return fail(i, "unknown_task")
			}
			if op.Op == model.OpSetWCET && op.Value <= 0 {
				return fail(i, "bad_value")
			}
			if en.edit == nil {
				en.edit = oracleEditOf(en.base)
			}
			e = en.edit
		}
		badVertex := func(x rt.VertexID) bool { return x < 0 || int(x) >= len(e.wcet) }
		badResource := op.Resource < 0 || int(op.Resource) >= ts.NumResources
		switch op.Op {
		case model.OpSetWCET:
			if badVertex(op.Vertex) {
				return fail(i, "unknown_vertex")
			}
			e.wcet[op.Vertex] = op.Value
		case model.OpSetCSLen:
			if badResource {
				return fail(i, "unknown_resource")
			}
			if op.Value < 0 {
				return fail(i, "bad_value")
			}
			e.cs[op.Resource] = op.Value
		case model.OpSetRequest:
			if badVertex(op.Vertex) {
				return fail(i, "unknown_vertex")
			}
			if badResource {
				return fail(i, "unknown_resource")
			}
			if op.Count < 0 {
				return fail(i, "bad_value")
			}
			e.reqs[op.Vertex][op.Resource] = op.Count
		case model.OpAddEdge:
			if badVertex(op.From) || badVertex(op.To) {
				return fail(i, "unknown_vertex")
			}
			if op.From == op.To {
				return fail(i, "bad_value")
			}
			if ed := (model.Edge{From: op.From, To: op.To}); !slices.Contains(e.edges, ed) {
				e.edges = append(e.edges, ed)
			}
		case model.OpRemoveEdge:
			n := len(e.edges)
			e.edges = slices.DeleteFunc(e.edges, func(ed model.Edge) bool { return ed.From == op.From && ed.To == op.To })
			if len(e.edges) == n {
				return fail(i, "unknown_edge")
			}
		case model.OpSetPeriod, model.OpSetDeadline:
			if op.Value <= 0 {
				return fail(i, "bad_value")
			}
			if op.Op == model.OpSetPeriod {
				e.period = op.Value
			} else {
				e.deadline = op.Value
			}
		case model.OpAddTask:
			if op.NewTask == nil {
				return fail(i, "bad_value")
			}
			if _, dup := index[op.NewTask.ID]; dup {
				return fail(i, "duplicate_task")
			}
			en := &ent{edit: oracleEditOf(op.NewTask)}
			ents = append(ents, en)
			index[en.edit.id] = en
		case model.OpRemoveTask:
			en, ok := index[op.Task]
			if !ok {
				return fail(i, "unknown_task")
			}
			ents = slices.DeleteFunc(ents, func(c *ent) bool { return c == en })
			delete(index, op.Task)
		default:
			return fail(i, "unknown_op")
		}
	}
	out := model.NewTaskset(ts.NumProcs, ts.NumResources)
	for _, en := range ents {
		if en.edit != nil {
			out.Add(en.edit.build())
		} else {
			out.Add(en.base)
		}
	}
	if out.Finalize() != nil {
		return fail(-1, "finalize")
	}
	return out, nil
}

// randomOp draws one patch op against ts: mostly valid edits of every
// kind, with unknown targets, bad values and edits Finalize rejects mixed
// in so that both sides' rejections are compared too.
func randomOp(r *rand.Rand, ts *model.Taskset) model.PatchOp {
	t := ts.Tasks[r.Intn(len(ts.Tasks))]
	op := model.PatchOp{Task: t.ID, Vertex: rt.VertexID(r.Intn(len(t.Vertices)))}
	v := t.Vertices[op.Vertex]
	nr := max(ts.NumResources, 1)
	op.Resource = rt.ResourceID(r.Intn(nr))
	scale := func(x rt.Time) rt.Time { return x/2 + rt.Time(r.Int63n(int64(x)+1)) }
	switch r.Intn(20) {
	case 0:
		op.Task = 1000 + rt.TaskID(r.Intn(3)) // unknown task
	case 1:
		op.Vertex = rt.VertexID(len(t.Vertices) + r.Intn(2)) // unknown vertex
	case 2:
		op.Resource = rt.ResourceID(ts.NumResources) // unknown resource
	}
	switch r.Intn(10) {
	case 0:
		op.Op, op.Value = model.OpSetWCET, scale(v.WCET)
		if r.Intn(8) == 0 {
			op.Value = 0
		}
	case 1:
		op.Op, op.Value = model.OpSetCSLen, scale(t.CS(op.Resource))-rt.Time(r.Intn(2))
	case 2:
		op.Op, op.Count = model.OpSetRequest, r.Intn(4)-r.Intn(2)
		if r.Intn(2) == 0 {
			op.Count = v.Requests.Count(op.Resource) + r.Intn(3) - 1
		}
	case 3:
		op.Op = model.OpAddEdge
		op.From, op.To = rt.VertexID(r.Intn(len(t.Vertices))), rt.VertexID(r.Intn(len(t.Vertices)))
	case 4:
		op.Op = model.OpRemoveEdge
		if len(t.Edges) > 0 && r.Intn(4) > 0 {
			ed := t.Edges[r.Intn(len(t.Edges))]
			op.From, op.To = ed.From, ed.To
		} else {
			op.From, op.To = rt.VertexID(r.Intn(len(t.Vertices))), rt.VertexID(r.Intn(len(t.Vertices)))
		}
	case 5:
		op.Op, op.Value = model.OpSetPeriod, scale(t.Period)
	case 6:
		op.Op, op.Value = model.OpSetDeadline, scale(t.Deadline)
	case 7:
		nt := t.Clone()
		nt.ID = rt.TaskID(100 + r.Intn(4))
		if r.Intn(4) == 0 {
			nt.ID = t.ID // duplicate
		}
		nt.Priority = rt.Priority(1000 + r.Intn(4))
		op = model.PatchOp{Op: model.OpAddTask, NewTask: nt}
	case 8:
		op = model.PatchOp{Op: model.OpRemoveTask, Task: op.Task}
	case 9:
		op.Op = "warp_time"
	}
	return op
}

// equivalenceBases returns a Fig. 2(a) taskset and one taskset of every
// adversarial shape.
func equivalenceBases(t *testing.T) map[string]*model.Taskset {
	t.Helper()
	out := make(map[string]*model.Taskset)
	scen, _ := taskgen.Fig2Scenario("2a")
	ts, err := taskgen.NewGenerator(scen).Taskset(rand.New(rand.NewSource(1)), 4)
	if err != nil {
		t.Fatal(err)
	}
	out["fig2a"] = ts
	a := taskgen.NewAdversarial()
	for _, shape := range taskgen.Shapes() {
		ts, err := a.TasksetWithShape(rand.New(rand.NewSource(int64(shape)+1)), shape)
		if err != nil {
			t.Fatal(err)
		}
		out[shape.String()] = ts
	}
	return out
}

// TestApplyPatchMatchesOracle drives random patch chains over generated
// bases through ApplyPatch and through the map-based oracle. Both must
// accept or reject each patch alike, with the same PatchError op and
// code, and an accepted patch must give the same canonical hash.
func TestApplyPatchMatchesOracle(t *testing.T) {
	const chains, steps = 100, 6
	accepted, rejected := make(map[string]int), make(map[string]int)
	for name, base := range equivalenceBases(t) {
		for c := 0; c < chains; c++ {
			r := rand.New(rand.NewSource(int64(c)))
			ts := base
			for s := 0; s < steps; s++ {
				var p model.Patch
				for k := 1 + r.Intn(3); k > 0; k-- {
					p.Ops = append(p.Ops, randomOp(r, ts))
				}
				where := fmt.Sprintf("%s chain %d step %d: %+v", name, c, s, p.Ops)
				got, _, gotErr := model.ApplyPatch(ts, p)
				want, wantErr := oracleApply(ts, p)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s: ApplyPatch error %v, oracle error %v", where, gotErr, wantErr)
				}
				if gotErr != nil {
					var g, w *model.PatchError
					if !errors.As(gotErr, &g) || !errors.As(wantErr, &w) || g.Op != w.Op || g.Code != w.Code {
						t.Fatalf("%s: ApplyPatch error %v, oracle error %v", where, gotErr, wantErr)
					}
					rejected[g.Code]++
					continue
				}
				for _, op := range p.Ops {
					accepted[op.Op]++
				}
				if got.Hash() != want.Hash() {
					t.Fatalf("%s: hash %s, oracle %s", where, got.Hash(), want.Hash())
				}
				if len(got.Tasks) > 0 {
					ts = got
				}
			}
		}
	}
	t.Logf("accepted ops %v; rejections %v", accepted, rejected)
	for _, op := range []string{model.OpSetWCET, model.OpSetCSLen, model.OpSetRequest, model.OpAddEdge,
		model.OpRemoveEdge, model.OpSetPeriod, model.OpSetDeadline, model.OpAddTask, model.OpRemoveTask} {
		if accepted[op] == 0 {
			t.Errorf("no accepted patch exercised %s", op)
		}
	}
}
