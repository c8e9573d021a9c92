// Package model implements the system model of the DPCP-p paper (Sec. II):
// sporadic parallel tasks structured as directed acyclic graphs, shared
// resources protected by binary semaphores, and tasksets combining both.
//
// A Task is built incrementally (AddVertex / AddEdge / AddRequest) and then
// sealed with Finalize, which validates the structure and precomputes the
// derived quantities the analyses need: total WCET, longest path length,
// per-task request and requesting-vertex counts, topological order, and the
// path bounds (the per-path extremes of length, non-critical WCET and
// request counts that DPCP-p-EN, SPIN-SON and LPP read). A Taskset is
// sealed with its own Finalize, which classifies resources as local or
// global and assigns rate-monotonic priorities unless priorities were set
// explicitly.
//
// A finalized Task is immutable. Its editable form is Clone, an
// unfinalized deep copy: an edit (ApplyPatch, or the audit's shrinker)
// writes the clone's exported fields and seals it with Finalize again, so
// Finalize is the one validator every task, decoded or edited, passes.
//
// The layout is compact. Finalize stores the DAG as CSR adjacency
// (Adjacency: offsets plus one flat array per direction), so Succ and Pred
// return subslices, sorted ascending and free of repeats. A vertex's
// request profile is a sorted slice (Requests) rather than a map; on the
// wire it keeps the JSON object form {"q": n} that encoding/json writes for
// a map. Finalize makes a fixed number of allocations, however many
// vertices and edges the task has.
//
//schedlint:deterministic
package model

import (
	"fmt"
	"slices"

	"dpcpp/internal/rt"
)

// Vertex is one node v_{i,x} of a task's DAG. Its WCET C_{i,x} includes the
// critical sections it executes; Requests.Count(q) is N_{i,x,q}, the
// maximum number of requests the vertex issues to resource q.
type Vertex struct {
	ID       rt.VertexID `json:"id"`
	WCET     rt.Time     `json:"wcet"`
	Requests Requests    `json:"requests,omitempty"`
}

// TotalRequests returns the number of requests the vertex issues across all
// resources.
func (v *Vertex) TotalRequests() int {
	n := 0
	for _, r := range v.Requests {
		n += r.Count
	}
	return n
}

// Edge is a precedence constraint (From must finish before To may start).
type Edge struct {
	From rt.VertexID `json:"from"`
	To   rt.VertexID `json:"to"`
}

// Task is a sporadic DAG task tau_i.
type Task struct {
	ID       rt.TaskID   `json:"id"`
	Name     string      `json:"name,omitempty"`
	Period   rt.Time     `json:"period"`   // T_i, minimum inter-arrival time
	Deadline rt.Time     `json:"deadline"` // D_i <= T_i (constrained)
	Priority rt.Priority `json:"priority"` // larger = higher; unique in a set

	Vertices []*Vertex `json:"vertices"`
	Edges    []Edge    `json:"edges"`

	// CSLen[q] is L_{i,q}, the maximum critical-section length of tau_i on
	// resource q (0 when tau_i does not use q). Indexed by ResourceID and
	// sized by the taskset's resource count at Finalize time.
	CSLen []rt.Time `json:"cslen"`

	// Derived by Finalize.
	finalized bool
	wcet      rt.Time       // C_i = sum of vertex WCETs
	adj       Adjacency     // successors and predecessors, sorted
	topo      []rt.VertexID // topological order, heads first
	heads     []rt.VertexID // topo's prefix of source vertices
	tails     []rt.VertexID
	nReq      []int64    // N_{i,q} per resource
	nVert     []int64    // V_{i,q} per resource: vertices requesting q
	bounds    PathBounds // path extremes, L*_i among them
}

// NewTask returns an empty task with the given identity and timing.
func NewTask(id rt.TaskID, period, deadline rt.Time) *Task {
	return &Task{ID: id, Period: period, Deadline: deadline}
}

// Clone returns an unfinalized deep copy of the task's exported fields:
// identity, timing, priority, name, vertices with their request profiles,
// edges and CSLen. It is the editable form of a task. A finalized Task is
// immutable, so an edit writes a clone and seals it with Finalize, which
// re-validates whatever the edit may have broken. The vertices come from
// one slab and their request entries from another.
func (t *Task) Clone() *Task {
	c := &Task{
		ID:       t.ID,
		Name:     t.Name,
		Period:   t.Period,
		Deadline: t.Deadline,
		Priority: t.Priority,
		Edges:    slices.Clone(t.Edges),
		CSLen:    slices.Clone(t.CSLen),
		Vertices: make([]*Vertex, len(t.Vertices)),
	}
	nReqs := 0
	for _, v := range t.Vertices {
		if v != nil {
			nReqs += len(v.Requests)
		}
	}
	verts := make([]Vertex, len(t.Vertices))
	reqs := make(Requests, 0, nReqs)
	for x, v := range t.Vertices {
		if v == nil {
			continue
		}
		verts[x] = Vertex{ID: v.ID, WCET: v.WCET}
		if v.Requests != nil {
			start := len(reqs)
			reqs = append(reqs, v.Requests...)
			verts[x].Requests = reqs[start:len(reqs):len(reqs)]
		}
		c.Vertices[x] = &verts[x]
	}
	return c
}

// AddVertex appends a vertex with the given WCET and returns its ID.
// Must be called before Finalize.
func (t *Task) AddVertex(wcet rt.Time) rt.VertexID {
	id := rt.VertexID(len(t.Vertices))
	t.Vertices = append(t.Vertices, &Vertex{ID: id, WCET: wcet})
	return id
}

// AddEdge appends a precedence edge. Must be called before Finalize.
func (t *Task) AddEdge(from, to rt.VertexID) {
	t.Edges = append(t.Edges, Edge{From: from, To: to})
}

// AddRequest records that vertex x issues n additional requests to resource
// q, each of length at most csLen. All requests of a task to one resource
// share the same maximum critical-section length L_{i,q}, as in the paper;
// csLen must therefore agree across calls for the same resource.
func (t *Task) AddRequest(x rt.VertexID, q rt.ResourceID, n int, csLen rt.Time) {
	t.Vertices[x].Requests.add(q, n)
	t.setCSLen(q, csLen)
}

func (t *Task) setCSLen(q rt.ResourceID, csLen rt.Time) {
	for int(q) >= len(t.CSLen) {
		t.CSLen = append(t.CSLen, 0)
	}
	if t.CSLen[q] != 0 && t.CSLen[q] != csLen {
		panic(fmt.Sprintf("model: task %d resource %d: conflicting CS lengths %d and %d",
			t.ID, q, t.CSLen[q], csLen))
	}
	t.CSLen[q] = csLen
}

// Finalize validates the task and computes its derived quantities: total
// WCET, request totals, adjacency, topological order, heads and tails, and
// the path bounds (PathBounds, which include the longest path L*_i). It
// does not build the canonical hash body; Taskset.Hash does, when asked.
// numResources is the number of resources in the enclosing taskset; it
// sizes the per-resource vectors. However large the task, Finalize makes
// the same number of allocations. Finalizing a finalized task again is a
// no-op for the same numResources and an error for any other, since its
// vectors are sized for the first.
func (t *Task) Finalize(numResources int) error {
	if t.finalized {
		if len(t.nReq) != numResources {
			return fmt.Errorf("model: task %d was finalized for %d resources, not %d",
				t.ID, len(t.nReq), numResources)
		}
		return nil
	}
	if len(t.Vertices) == 0 {
		return fmt.Errorf("model: task %d has no vertices", t.ID)
	}
	if t.Period <= 0 {
		return fmt.Errorf("model: task %d has non-positive period %d", t.ID, t.Period)
	}
	if t.Deadline <= 0 || t.Deadline > t.Period {
		return fmt.Errorf("model: task %d violates constrained deadline: D=%d T=%d",
			t.ID, t.Deadline, t.Period)
	}
	if len(t.CSLen) < numResources {
		t.CSLen = append(t.CSLen, make([]rt.Time, numResources-len(t.CSLen))...)
	}
	if len(t.CSLen) > numResources {
		return fmt.Errorf("model: task %d references resource beyond taskset's %d resources",
			t.ID, numResources)
	}
	for q, cs := range t.CSLen {
		if cs < 0 {
			return fmt.Errorf("model: task %d has negative CS length %d on resource %d", t.ID, cs, q)
		}
	}

	n := len(t.Vertices)
	for _, e := range t.Edges {
		if int(e.From) >= n || int(e.To) >= n || e.From < 0 || e.To < 0 {
			return fmt.Errorf("model: task %d edge (%d,%d) references missing vertex",
				t.ID, e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("model: task %d has self-loop at vertex %d", t.ID, e.From)
		}
	}
	// A repeated edge is the same precedence constraint, and the canonical
	// hash keeps it once; so does the adjacency, and with it every path
	// count and analysis.
	t.adj = NewAdjacency(n, t.Edges)
	if err := t.topoSort(); err != nil {
		return err
	}

	t.wcet = 0
	counts := make([]int64, 2*numResources)
	t.nReq, t.nVert = counts[:numResources:numResources], counts[numResources:]
	for x, v := range t.Vertices {
		if v == nil {
			return fmt.Errorf("model: task %d vertex at index %d is null", t.ID, x)
		}
		// Vertex IDs are assigned by AddVertex and must equal the slice
		// index: the simulator and segment builder index by them. A JSON
		// document is free to claim otherwise, so Finalize enforces it.
		if v.ID != rt.VertexID(x) {
			return fmt.Errorf("model: task %d vertex at index %d carries ID %d", t.ID, x, v.ID)
		}
		if v.WCET <= 0 {
			return fmt.Errorf("model: task %d vertex %d has non-positive WCET", t.ID, v.ID)
		}
		if err := v.Requests.orderErr(t.ID, v.ID); err != nil {
			return err
		}
		t.wcet = rt.SatAdd(t.wcet, v.WCET)
		var cs rt.Time
		for _, r := range v.Requests {
			q, c := r.Resource, r.Count
			if c < 0 {
				return fmt.Errorf("model: task %d vertex %d has negative request count", t.ID, v.ID)
			}
			if q < 0 || int(q) >= numResources {
				return fmt.Errorf("model: task %d vertex %d requests unknown resource %d", t.ID, v.ID, q)
			}
			t.nReq[q] += int64(c)
			if c > 0 {
				t.nVert[q]++
			}
			cs += rt.SatMul(int64(c), t.CSLen[q])
		}
		if cs > v.WCET {
			return fmt.Errorf("model: task %d vertex %d: critical sections (%d) exceed WCET (%d)",
				t.ID, v.ID, cs, v.WCET)
		}
	}

	t.bounds = t.computePathBounds() // includes L*_i

	t.finalized = true
	return nil
}

// topoSort sets the topological order, heads and tails from the
// adjacency. It is Kahn's algorithm with the order doubling as its FIFO
// queue: the heads, in index order, are the order's first entries. One
// slab holds the order and the tails.
func (t *Task) topoSort() error {
	n := len(t.Vertices)
	indeg := make([]int, n)
	nt := 0
	for x := range indeg {
		indeg[x] = len(t.adj.Pred(rt.VertexID(x)))
		if len(t.adj.Succ(rt.VertexID(x))) == 0 {
			nt++
		}
	}
	ids := make([]rt.VertexID, n+nt)
	order, tails := ids[:0:n], ids[n:n]
	for x, d := range indeg {
		if d == 0 {
			order = append(order, rt.VertexID(x))
		}
		if len(t.adj.Succ(rt.VertexID(x))) == 0 {
			tails = append(tails, rt.VertexID(x))
		}
	}
	nh := len(order)
	for i := 0; i < len(order); i++ {
		for _, y := range t.adj.Succ(order[i]) {
			indeg[y]--
			if indeg[y] == 0 {
				order = append(order, y)
			}
		}
	}
	if len(order) != n {
		return fmt.Errorf("model: task %d DAG contains a cycle", t.ID)
	}
	t.topo, t.heads, t.tails = order, order[:nh:nh], tails
	return nil
}

func (t *Task) mustFinal() {
	if !t.finalized {
		panic(fmt.Sprintf("model: task %d used before Finalize", t.ID))
	}
}

// WCET returns C_i, the total worst-case execution time of the task.
func (t *Task) WCET() rt.Time { t.mustFinal(); return t.wcet }

// LongestPath returns L*_i, the length of the longest complete path.
func (t *Task) LongestPath() rt.Time { t.mustFinal(); return t.bounds.MaxLength }

// Utilization returns U_i = C_i / T_i.
func (t *Task) Utilization() float64 {
	t.mustFinal()
	return float64(t.wcet) / float64(t.Period)
}

// Heavy reports whether the task is heavy under federated scheduling,
// i.e. C_i / D_i > 1.
func (t *Task) Heavy() bool { t.mustFinal(); return t.wcet > t.Deadline }

// NumRequests returns N_{i,q}, the task's maximum number of requests to q.
func (t *Task) NumRequests(q rt.ResourceID) int64 {
	t.mustFinal()
	if int(q) >= len(t.nReq) {
		return 0
	}
	return t.nReq[q]
}

// RequestTotals returns N_{i,q} for every resource q, indexed by
// ResourceID and sized by the taskset's resource count, computed once by
// Finalize. The result is shared and must not be modified.
func (t *Task) RequestTotals() []int64 { t.mustFinal(); return t.nReq }

// VertexCount returns V_{i,q}, the number of the task's vertices that issue
// at least one request to q. It bounds how many requests of one job can be
// pending on q at once.
func (t *Task) VertexCount(q rt.ResourceID) int64 {
	t.mustFinal()
	if int(q) >= len(t.nVert) {
		return 0
	}
	return t.nVert[q]
}

// UsesResource reports whether the task issues any request to q.
func (t *Task) UsesResource(q rt.ResourceID) bool { return t.NumRequests(q) > 0 }

// CS returns L_{i,q}, the task's maximum critical-section length on q
// (0 when unused).
func (t *Task) CS(q rt.ResourceID) rt.Time {
	if int(q) >= len(t.CSLen) {
		return 0
	}
	return t.CSLen[q]
}

// CSWork returns N_{i,q} * L_{i,q}, the task's total per-job critical-section
// workload on q.
func (t *Task) CSWork(q rt.ResourceID) rt.Time {
	return rt.SatMul(t.NumRequests(q), t.CS(q))
}

// NonCritWCET returns C'_i = C_i - sum_q N_{i,q} * L_{i,q}, the WCET of the
// task's non-critical sections.
func (t *Task) NonCritWCET() rt.Time {
	t.mustFinal()
	c := t.wcet
	for q := range t.nReq {
		c -= t.CSWork(rt.ResourceID(q))
	}
	return c
}

// VertexNonCrit returns C'_{i,x}, the non-critical WCET of vertex x.
func (t *Task) VertexNonCrit(x rt.VertexID) rt.Time {
	t.mustFinal()
	v := t.Vertices[x]
	c := v.WCET
	for _, r := range v.Requests {
		c -= rt.SatMul(int64(r.Count), t.CS(r.Resource))
	}
	return c
}

// Topo returns the vertices in a topological order.
func (t *Task) Topo() []rt.VertexID { t.mustFinal(); return t.topo }

// Succ returns the successors of vertex x, ascending and without repeats.
func (t *Task) Succ(x rt.VertexID) []rt.VertexID { t.mustFinal(); return t.adj.Succ(x) }

// Pred returns the predecessors of vertex x, ascending and without repeats.
func (t *Task) Pred(x rt.VertexID) []rt.VertexID { t.mustFinal(); return t.adj.Pred(x) }

// Heads returns the source vertices of the DAG, ascending.
func (t *Task) Heads() []rt.VertexID { t.mustFinal(); return t.heads }

// Tails returns the sink vertices of the DAG, ascending.
func (t *Task) Tails() []rt.VertexID { t.mustFinal(); return t.tails }

// Resources returns the IDs of the resources the task uses, ascending.
func (t *Task) Resources() []rt.ResourceID {
	t.mustFinal()
	var out []rt.ResourceID
	for q, n := range t.nReq {
		if n > 0 {
			out = append(out, rt.ResourceID(q))
		}
	}
	return out
}
