package taskgen

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"dpcpp/internal/model"
	"dpcpp/internal/rt"
)

// Generator synthesizes tasksets for one scenario. It is deterministic
// given the *rand.Rand it is handed. Taskset only reads the Generator, so
// concurrent Taskset calls on one Generator are safe, each with its own
// *rand.Rand.
type Generator struct {
	Scenario Scenario
}

const (
	// maxCSFraction caps the total critical-section workload of a task at
	// this fraction of its WCET; request counts are reduced when the drawn
	// parameters would exceed it (the paper enforces the same through its
	// "C_{i,x} >= sum N_{i,x,q} L_{i,q}" plausibility rule).
	maxCSFraction = 0.5

	// structRetries bounds how many DAG structures are attempted per task
	// before giving up (the edge probability decays on every retry, which
	// widens the DAG and always converges).
	structRetries = 64
)

// NewGenerator returns a Generator with the paper's defaults.
func NewGenerator(s Scenario) *Generator {
	return &Generator{Scenario: s.DefaultStructure()}
}

// Taskset generates one taskset with the given total utilization.
func (g *Generator) Taskset(r *rand.Rand, totalUtil float64) (*model.Taskset, error) {
	s := g.Scenario
	nr := UniformInt(r, s.NumRes.Lo, s.NumRes.Hi)
	utils, err := g.splitUtilization(r, totalUtil)
	if err != nil {
		return nil, err
	}

	ts := model.NewTaskset(s.M, nr)
	for i, u := range utils {
		task, err := g.task(r, rt.TaskID(i), u, nr)
		if err != nil {
			return nil, fmt.Errorf("taskgen: task %d (U=%.3f): %w", i, u, err)
		}
		ts.Add(task)
	}
	if err := ts.Finalize(); err != nil {
		return nil, err
	}
	return ts, nil
}

// splitUtilization draws per-task utilizations in (1, 2*UAvg] summing to
// totalUtil via RandFixedSum. The number of tasks follows the paper: it is
// determined by UAvg and the total utilization. Totals at or below 1 yield
// a single task with exactly that utilization.
func (g *Generator) splitUtilization(r *rand.Rand, totalUtil float64) ([]float64, error) {
	if totalUtil <= 0 {
		return nil, fmt.Errorf("taskgen: non-positive total utilization %g", totalUtil)
	}
	lo := 1.0 + 1e-6
	hi := 2 * g.Scenario.UAvg
	if hi <= lo {
		return nil, fmt.Errorf("taskgen: UAvg %g leaves empty utilization range", g.Scenario.UAvg)
	}
	if totalUtil <= lo {
		return []float64{totalUtil}, nil
	}
	n := int(math.Round(totalUtil / g.Scenario.UAvg))
	nMin := int(math.Ceil(totalUtil / hi))
	nMax := int(math.Floor(totalUtil / lo))
	if n < nMin {
		n = nMin
	}
	if n > nMax {
		n = nMax
	}
	if n < 1 {
		n = 1
	}
	if n == 1 {
		return []float64{totalUtil}, nil
	}
	return RandFixedSum(r, n, totalUtil, lo, hi)
}

// resourceDraw is the per-task resource parameterization before placement.
type resourceDraw struct {
	q  rt.ResourceID
	n  int64   // N_{i,q}
	cs rt.Time // L_{i,q}
}

// task generates one DAG task with utilization u.
func (g *Generator) task(r *rand.Rand, id rt.TaskID, u float64, nr int) (*model.Task, error) {
	s := g.Scenario
	periodMS := LogUniform(r, float64(s.PeriodLo)/float64(rt.Millisecond),
		float64(s.PeriodHi)/float64(rt.Millisecond))
	period := rt.Time(math.Round(periodMS * float64(rt.Millisecond)))
	deadline := period
	wcet := rt.Time(math.Round(u * float64(period)))
	nVerts := UniformInt(r, s.VertsRange.Lo, s.VertsRange.Hi)

	draws := g.drawResources(r, nr, wcet, deadline, nVerts)

	p := s.EdgeProb
	var lastErr error
	for attempt := 0; attempt < structRetries; attempt++ {
		task, err := g.buildDAG(r, id, period, deadline, wcet, nVerts, p, draws, nr)
		if err == nil {
			return task, nil
		}
		lastErr = err
		p *= 0.7 // widen the DAG; h[x] -> 1 as p -> 0, which is always feasible
	}
	return nil, fmt.Errorf("no feasible DAG structure after %d attempts: %w",
		structRetries, lastErr)
}

// drawResources draws which resources the task uses and with what
// parameters, then scales the request counts down so the total
// critical-section workload fits within maxCSFraction of the WCET and
// within a quarter of the deadline (so that the longest path can always
// stay below D/2 even when requests concentrate).
func (g *Generator) drawResources(r *rand.Rand, nr int, wcet, deadline rt.Time, nVerts int) []resourceDraw {
	s := g.Scenario
	var draws []resourceDraw
	for q := 0; q < nr; q++ {
		if r.Float64() >= s.PAccess {
			continue
		}
		n := int64(UniformInt(r, s.NReq.Lo, s.NReq.Hi))
		cs := s.CSLen.Lo + rt.Time(r.Int63n(int64(s.CSLen.Hi-s.CSLen.Lo)+1))
		draws = append(draws, resourceDraw{q: rt.ResourceID(q), n: n, cs: cs})
	}

	budget := rt.Time(maxCSFraction * float64(wcet))
	if q := deadline / 4; q < budget {
		budget = q
	}
	total := func() rt.Time {
		var t rt.Time
		for _, d := range draws {
			t += rt.SatMul(d.n, d.cs)
		}
		return t
	}
	// Proportional reduction of request counts, keeping each N >= 1.
	if tot := total(); tot > budget && tot > 0 {
		ratio := float64(budget) / float64(tot)
		for i := range draws {
			n := int64(math.Floor(float64(draws[i].n) * ratio))
			if n < 1 {
				n = 1
			}
			draws[i].n = n
		}
	}
	// If even one request per resource exceeds the budget, drop resources
	// (random victims) until it fits.
	for total() > budget && len(draws) > 0 {
		i := r.Intn(len(draws))
		draws = append(draws[:i], draws[i+1:]...)
	}
	return draws
}

// edge returns the precedence edge from -> to. The generators draw edges
// with from < to, so vertex indices always form a topological order.
func edge(from, to int) model.Edge {
	return model.Edge{From: rt.VertexID(from), To: rt.VertexID(to)}
}

// buildDAG builds the Erdős–Rényi structure and hands it to assembleTask.
// The pairs (i, j), i < j, are drawn in order into a bitset first, so the
// edge list is allocated once at its exact size. It comes out sorted by
// source, then by target.
func (g *Generator) buildDAG(r *rand.Rand, id rt.TaskID, period, deadline, wcet rt.Time,
	nVerts int, edgeProb float64, draws []resourceDraw, nr int) (*model.Task, error) {

	pairs := nVerts * (nVerts - 1) / 2
	drawn := make([]uint64, (pairs+63)/64)
	nEdges := 0
	for k := 0; k < pairs; k++ {
		if r.Float64() < edgeProb {
			drawn[k/64] |= 1 << (k % 64)
			nEdges++
		}
	}
	var edges []model.Edge
	if nEdges > 0 {
		edges = make([]model.Edge, 0, nEdges)
	}
	// Row i holds the pairs (i, i+1..nVerts-1) and ends before rowEnd, so
	// pair k of row i is (i, k-rowEnd+nVerts).
	i, rowEnd := 0, nVerts-1
	for w, word := range drawn {
		for ; word != 0; word &= word - 1 {
			k := w*64 + bits.TrailingZeros64(word)
			for k >= rowEnd {
				i++
				rowEnd += nVerts - 1 - i
			}
			edges = append(edges, edge(i, k-rowEnd+nVerts))
		}
	}
	caps, capSum := vertexCaps(nVerts, edges, deadline)
	return assembleTask(r, id, period, deadline, wcet, nVerts, edges, caps, capSum, draws, nr)
}

// chainHeights returns h[x] = the maximum number of vertices on any chain
// through x. Every edge must go from a lower to a higher vertex index; the
// edges may come in any order and may repeat. One counting sort groups the
// edge targets by source. Every successor of x then has a larger index, so
// an ascending sweep pushes the longest chain ending at x to x's successors
// after all of x's predecessors have pushed theirs to x, and a descending
// sweep takes the longest chain starting at x from successors that are
// already final. A repeated edge changes neither maximum.
func chainHeights(nVerts int, edges []model.Edge) []int {
	slab := make([]int, 4*nVerts+1+len(edges))
	fwd := slab[:nVerts]               // longest chain ending at x (inclusive)
	bwd := slab[nVerts : 2*nVerts]     // longest chain starting at x (inclusive)
	h := slab[2*nVerts : 3*nVerts]     // the result
	off := slab[3*nVerts : 4*nVerts+1] // x's targets are succ[off[x]:off[x+1]]
	succ := slab[4*nVerts+1:]
	for _, e := range edges {
		off[e.From]++
	}
	for x := 1; x <= nVerts; x++ {
		off[x] += off[x-1]
	}
	// off[x] now ends x's bucket; filling each bucket from its end leaves
	// off[x] at its start.
	for _, e := range edges {
		off[e.From]--
		succ[off[e.From]] = int(e.To)
	}
	for x := range fwd {
		fwd[x] = 1
	}
	for x := 0; x < nVerts; x++ {
		for _, s := range succ[off[x]:off[x+1]] {
			fwd[s] = max(fwd[s], fwd[x]+1)
		}
	}
	for x := nVerts - 1; x >= 0; x-- {
		bwd[x] = 1
		for _, s := range succ[off[x]:off[x+1]] {
			bwd[x] = max(bwd[x], bwd[s]+1)
		}
		h[x] = fwd[x] + bwd[x] - 1
	}
	return h
}

// vertexCaps returns the per-vertex WCET caps (D/2 - margin)/h[x] and their
// sum; a non-positive cap base yields nil.
func vertexCaps(nVerts int, edges []model.Edge, deadline rt.Time) (caps []rt.Time, capSum rt.Time) {
	margin := rt.Time(2 * nVerts) // nanoseconds of slack for rounding fixes
	capBase := deadline/2 - margin
	if capBase <= 0 {
		return nil, 0
	}
	h := chainHeights(nVerts, edges)
	caps = make([]rt.Time, nVerts)
	for x := 0; x < nVerts; x++ {
		caps[x] = capBase / rt.Time(h[x])
		capSum += caps[x]
	}
	return caps, capSum
}

// assembleTask distributes WCET and requests over a fixed DAG structure
// subject to the plausibility constraints. The construction is correct by
// design:
//
//   - h[x] = the maximum number of vertices on any chain through x. Every
//     vertex WCET is capped at (D/2 - margin)/h[x], so any complete path
//     lambda satisfies L(lambda) <= sum (D/2 - margin)/h[x] < D/2 because
//     h[x] >= |lambda| for every x on lambda.
//   - Request units are only placed on vertices whose remaining cap can
//     absorb the critical section, so C_{i,x} >= sum_q N_{i,x,q} L_{i,q}.
//
// Every edge must go from a lower to a higher vertex index; the edges may
// come in any order and may repeat (chainHeights groups them by source).
// caps and capSum are vertexCaps(nVerts, edges, deadline), which the
// caller has already computed to size the WCET or the draws. The draws must
// name distinct resources in ascending order. The task takes ownership of
// edges.
// Both the paper-grid Generator and the adversarial generators build on
// this assembly.
func assembleTask(r *rand.Rand, id rt.TaskID, period, deadline, wcet rt.Time,
	nVerts int, edges []model.Edge, caps []rt.Time, capSum rt.Time,
	draws []resourceDraw, nr int) (*model.Task, error) {

	if caps == nil {
		return nil, fmt.Errorf("deadline %d too short for %d vertices", deadline, nVerts)
	}
	if capSum < wcet {
		return nil, fmt.Errorf("vertex caps sum %d < WCET %d (chains too long)", capSum, wcet)
	}

	// Place request units on vertices with room for the critical section.
	// placed[x*len(draws)+i] counts the units of draws[i] on vertex x.
	csNeed := make([]rt.Time, nVerts)
	placed := make([]int, nVerts*len(draws))
	placeRequests(r, caps, csNeed, draws, placed)
	var totalCS rt.Time
	for _, c := range csNeed {
		totalCS += c
	}
	if totalCS > wcet {
		return nil, fmt.Errorf("placed CS workload %d exceeds WCET %d", totalCS, wcet)
	}

	// Waterfill the non-critical budget under the per-vertex caps.
	alloc := waterfill(r, caps, csNeed, wcet-totalCS)
	if alloc == nil {
		return nil, fmt.Errorf("waterfill failed: insufficient slack")
	}

	// The vertices, and then all of their request entries, each come from
	// one slab; a resource's L_{i,q} is recorded once some unit of it landed.
	task := model.NewTask(id, period, deadline)
	if len(edges) > 0 {
		task.Edges = edges
	}
	task.CSLen = make([]rt.Time, nr)
	task.Vertices = make([]*model.Vertex, nVerts)
	verts := make([]model.Vertex, nVerts)
	nReqs := 0
	for _, n := range placed {
		if n > 0 {
			nReqs++
		}
	}
	reqs := make(model.Requests, 0, nReqs)
	for x := range verts {
		w := csNeed[x] + alloc[x]
		if w <= 0 {
			w = 1 // the cap margin guarantees room for this
		}
		verts[x] = model.Vertex{ID: rt.VertexID(x), WCET: w}
		start := len(reqs)
		for i, d := range draws {
			if n := placed[x*len(draws)+i]; n > 0 {
				reqs = append(reqs, model.Request{Resource: d.q, Count: n})
				task.CSLen[d.q] = d.cs
			}
		}
		if len(reqs) > start {
			verts[x].Requests = reqs[start:len(reqs):len(reqs)]
		}
		task.Vertices[x] = &verts[x]
	}
	if err := task.Finalize(nr); err != nil {
		return nil, err
	}
	if task.LongestPath() >= deadline/2 {
		return nil, fmt.Errorf("L*=%d >= D/2=%d despite caps", task.LongestPath(), deadline/2)
	}
	return task, nil
}

// placeRequests places the request units of each draw in turn, adding their
// critical sections to csNeed and counting them in placed[x*len(draws)+i].
// Each unit goes to a uniformly random vertex whose cap can absorb one more
// critical section of the draw; once none can, the draw's remaining units
// are dropped.
//
// A draw's candidate vertices are listed once, ascending, and a unit takes
// the k-th with k = r.Intn(len(cand)). Placing it changes only that
// vertex's room, so only that vertex is re-checked, and it leaves the list
// when full. Every unit thus lands on the same vertex, from the same draws
// of r, as a scan of all vertices per unit would pick.
func placeRequests(r *rand.Rand, caps, csNeed []rt.Time, draws []resourceDraw, placed []int) {
	cand := make([]int, 0, len(caps))
	for i, d := range draws {
		cand = cand[:0]
		for x := range caps {
			if csNeed[x]+d.cs <= caps[x] {
				cand = append(cand, x)
			}
		}
		for unit := int64(0); unit < d.n && len(cand) > 0; unit++ {
			k := r.Intn(len(cand))
			x := cand[k]
			csNeed[x] += d.cs
			placed[x*len(draws)+i]++
			if csNeed[x]+d.cs > caps[x] {
				cand = append(cand[:k], cand[k+1:]...)
			}
		}
	}
}

// waterfill distributes budget across vertices with random proportions,
// clamping each vertex at caps[x]-csNeed[x] and redistributing the excess
// until the budget is exhausted. Returns nil if the total slack cannot
// absorb the budget.
func waterfill(r *rand.Rand, caps, csNeed []rt.Time, budget rt.Time) []rt.Time {
	n := len(caps)
	alloc := make([]rt.Time, n)
	slack := func(x int) rt.Time { return caps[x] - csNeed[x] - alloc[x] }

	var totalSlack rt.Time
	for x := 0; x < n; x++ {
		totalSlack += slack(x)
	}
	if totalSlack < budget {
		return nil
	}

	pool := budget
	active := make([]int, 0, n)
	weights := make([]float64, 0, n)
	for pool > 0 {
		active = active[:0]
		for x := 0; x < n; x++ {
			if slack(x) > 0 {
				active = append(active, x)
			}
		}
		if len(active) == 0 {
			return nil // cannot happen given the slack check above
		}
		weights = weights[:len(active)]
		var wsum float64
		for i := range active {
			weights[i] = r.ExpFloat64() + 0.1
			wsum += weights[i]
		}
		assigned := rt.Time(0)
		for i, x := range active {
			share := rt.Time(float64(pool) * weights[i] / wsum)
			if i == len(active)-1 {
				share = pool - assigned
			}
			if s := slack(x); share > s {
				share = s
			}
			alloc[x] += share
			assigned += share
		}
		pool -= assigned
		if assigned == 0 {
			// Degenerate rounding: push the remainder one nanosecond at a
			// time into the first vertices with slack.
			for x := 0; x < n && pool > 0; x++ {
				d := slack(x)
				if d > pool {
					d = pool
				}
				alloc[x] += d
				pool -= d
			}
		}
	}
	return alloc
}
