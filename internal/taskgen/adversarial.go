package taskgen

import (
	"fmt"
	"math"
	"math/rand"

	"dpcpp/internal/model"
	"dpcpp/internal/rt"
)

// Shape identifies one adversarial taskset family. The families deliberately
// sit outside the paper's Sec. VII-A grid: structures the Erdős–Rényi
// recipe almost never draws (deep chains, wide fork-joins, single vertices)
// and parameterizations it excludes (near-harmonic periods, critical-section
// lengths skewed across orders of magnitude, fully-critical vertices).
type Shape int

const (
	// ShapeChain builds deep sequential chains: DAGs that are one long
	// path, maximizing L* relative to C and stressing the path-length term.
	ShapeChain Shape = iota
	// ShapeForkJoin builds wide single-stage fork-joins: maximal
	// parallelism, often heavy (C > D), stressing cluster augmentation.
	ShapeForkJoin
	// ShapeLayered builds random layered DAGs with occasional layer-skipping
	// edges: many distinct path signatures for the EP view collapse.
	ShapeLayered
	// ShapeSingleVertex builds degenerate one-vertex tasks, sometimes fully
	// critical (the entire WCET is one critical section).
	ShapeSingleVertex
	// ShapeContention builds contention-heavy mixes: small structures with
	// near-harmonic periods, high request counts and critical-section
	// lengths skewed across orders of magnitude with one hot resource.
	ShapeContention

	numShapes
)

// Shapes lists every adversarial shape in deterministic order.
func Shapes() []Shape {
	out := make([]Shape, numShapes)
	for i := range out {
		out[i] = Shape(i)
	}
	return out
}

func (s Shape) String() string {
	switch s {
	case ShapeChain:
		return "chain"
	case ShapeForkJoin:
		return "fork-join"
	case ShapeLayered:
		return "layered"
	case ShapeSingleVertex:
		return "single-vertex"
	case ShapeContention:
		return "contention"
	default:
		return fmt.Sprintf("shape(%d)", int(s))
	}
}

// Adversarial synthesizes tasksets for the differential audit
// (internal/audit). It is deterministic given the *rand.Rand it is handed
// and reuses the Generator's assembly core (assembleTask), so every drawn
// taskset satisfies the model's plausibility constraints by construction.
//
// Sizes default small on purpose: audit tasksets are simulated over several
// (near-)hyperperiods per certified verdict, so period magnitudes stay in
// the hundreds-of-microseconds range and processor counts stay single-digit
// to keep a 2000-taskset audit within seconds of CPU time.
type Adversarial struct {
	MaxProcs int // processors drawn in [2, MaxProcs]; default 8
	MaxTasks int // tasks drawn in [1, MaxTasks]; default 5
	MaxRes   int // resources drawn in [1, MaxRes]; default 4
	Retries  int // attempts per task before giving up; default 16
}

// NewAdversarial returns an Adversarial generator with defaults.
func NewAdversarial() *Adversarial {
	return &Adversarial{MaxProcs: 8, MaxTasks: 5, MaxRes: 4, Retries: 16}
}

// Taskset draws one adversarial taskset of a random shape.
func (a *Adversarial) Taskset(r *rand.Rand) (*model.Taskset, Shape, error) {
	shape := Shape(r.Intn(int(numShapes)))
	ts, err := a.TasksetWithShape(r, shape)
	return ts, shape, err
}

// TasksetWithShape draws one adversarial taskset of the given shape.
func (a *Adversarial) TasksetWithShape(r *rand.Rand, shape Shape) (*model.Taskset, error) {
	m := 2 + r.Intn(a.MaxProcs-1)
	nr := 1 + r.Intn(a.MaxRes)
	n := 1 + r.Intn(a.MaxTasks)

	periods := a.periods(r, n, shape)
	ts := model.NewTaskset(m, nr)
	for i := 0; i < n; i++ {
		task, err := a.task(r, rt.TaskID(i), periods[i], shape, nr)
		if err != nil {
			return nil, fmt.Errorf("taskgen: adversarial %s task %d: %w", shape, i, err)
		}
		ts.Add(task)
	}
	if err := ts.Finalize(); err != nil {
		return nil, err
	}
	return ts, nil
}

// periods draws the per-task periods: near-harmonic for the contention
// shape (exact power-of-two multiples of a common base, so a few multiples
// of the longest period really are whole hyperperiods, with occasional
// sub-microsecond jitter breaking exact harmonicity), log-uniform otherwise.
func (a *Adversarial) periods(r *rand.Rand, n int, shape Shape) []rt.Time {
	out := make([]rt.Time, n)
	if shape == ShapeContention {
		base := rt.Time(100+r.Intn(400)) * rt.Microsecond
		for i := range out {
			out[i] = base << uint(r.Intn(4))
			if r.Intn(4) == 0 {
				out[i] += rt.Time(r.Intn(800)) // near-harmonic: ns-scale jitter
			}
		}
		return out
	}
	for i := range out {
		ms := LogUniform(r, 0.2, 20)
		out[i] = rt.Time(math.Round(ms * float64(rt.Millisecond)))
	}
	return out
}

// task draws one task of the shape. The WCET is drawn against the exact
// per-structure cap sum, so deep chains stay light (C <= D/2) while wide
// shapes may be heavy (C > D) and exercise multi-processor clusters.
func (a *Adversarial) task(r *rand.Rand, id rt.TaskID, period rt.Time,
	shape Shape, nr int) (*model.Task, error) {

	deadline := period
	if r.Intn(10) < 3 { // constrained deadline D < T
		deadline = period * rt.Time(60+r.Intn(40)) / 100
	}

	var lastErr error
	for attempt := 0; attempt < a.Retries; attempt++ {
		nVerts, edges := a.structure(r, shape)
		caps, capSum := vertexCaps(nVerts, edges, deadline)
		if capSum <= rt.Time(nVerts) {
			lastErr = fmt.Errorf("deadline %s too short for %d vertices",
				rt.FormatTime(deadline), nVerts)
			continue
		}
		frac := 0.3 + 0.55*r.Float64()
		wcet := rt.Time(frac * float64(capSum))
		if wcet < rt.Time(nVerts) {
			wcet = rt.Time(nVerts)
		}
		draws := a.drawRequests(r, shape, nr, wcet, deadline)
		task, err := assembleTask(r, id, period, deadline, wcet, nVerts, edges, caps, capSum, draws, nr)
		if err == nil {
			return task, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// structure draws the DAG skeleton of the shape; edges always go from lower
// to higher vertex index.
func (a *Adversarial) structure(r *rand.Rand, shape Shape) (int, []model.Edge) {
	switch shape {
	case ShapeChain:
		k := 3 + r.Intn(22)
		edges := make([]model.Edge, 0, k-1)
		for i := 0; i < k-1; i++ {
			edges = append(edges, edge(i, i+1))
		}
		return k, edges
	case ShapeForkJoin:
		w := 2 + r.Intn(14)
		edges := make([]model.Edge, 0, 2*w)
		for i := 1; i <= w; i++ {
			edges = append(edges, edge(0, i), edge(i, w+1))
		}
		return w + 2, edges
	case ShapeLayered:
		layers := 2 + r.Intn(4)
		width := 2 + r.Intn(4)
		n := layers * width
		var edges []model.Edge
		at := func(l, i int) int { return l*width + i }
		for l := 1; l < layers; l++ {
			for i := 0; i < width; i++ {
				// At least one incoming edge keeps every chain layer-deep.
				edges = append(edges, edge(at(l-1, r.Intn(width)), at(l, i)))
				for j := 0; j < width; j++ {
					if r.Float64() < 0.3 {
						edges = append(edges, edge(at(l-1, j), at(l, i)))
					}
				}
				if l >= 2 && r.Float64() < 0.1 { // layer-skipping edge
					edges = append(edges, edge(at(l-2, r.Intn(width)), at(l, i)))
				}
			}
		}
		return n, edges
	case ShapeSingleVertex:
		return 1, nil
	default: // ShapeContention: small per-task structure
		switch r.Intn(3) {
		case 0:
			return 1, nil
		case 1:
			k := 2 + r.Intn(3)
			edges := make([]model.Edge, 0, k-1)
			for i := 0; i < k-1; i++ {
				edges = append(edges, edge(i, i+1))
			}
			return k, edges
		default:
			w := 2 + r.Intn(3)
			edges := make([]model.Edge, 0, 2*w)
			for i := 1; i <= w; i++ {
				edges = append(edges, edge(0, i), edge(i, w+1))
			}
			return w + 2, edges
		}
	}
}

// drawRequests draws the per-resource request parameters of one task.
// Contention tasks request almost every resource, many times, with
// critical-section lengths log-uniform across two orders of magnitude and
// one hot resource (l0) three times longer still. Single-vertex tasks are
// occasionally fully critical: one request whose critical section is the
// whole WCET, exercising zero-length non-critical segments downstream.
func (a *Adversarial) drawRequests(r *rand.Rand, shape Shape, nr int,
	wcet, deadline rt.Time) []resourceDraw {

	if shape == ShapeSingleVertex && r.Intn(10) < 3 {
		if r.Intn(4) == 0 {
			return nil // no requests at all: plain federated execution
		}
		cs := wcet // fully-critical vertex
		if lim := deadline / 3; cs > lim {
			cs = lim
		}
		if cs <= 0 {
			return nil
		}
		return []resourceDraw{{q: rt.ResourceID(r.Intn(nr)), n: 1, cs: cs}}
	}

	pAccess, budgetFrac := 0.4, 0.5
	var draws []resourceDraw
	for q := 0; q < nr; q++ {
		var d resourceDraw
		d.q = rt.ResourceID(q)
		if shape == ShapeContention {
			if r.Float64() >= 0.85 {
				continue
			}
			d.n = int64(4 + r.Intn(29))
			d.cs = rt.Time(math.Round(LogUniform(r, 2, 200))) * rt.Microsecond
			if q == 0 {
				d.cs *= 3 // hot resource
			}
		} else {
			if r.Float64() >= pAccess {
				continue
			}
			d.n = int64(1 + r.Intn(6))
			d.cs = rt.Time(1+r.Intn(40)) * rt.Microsecond
		}
		draws = append(draws, d)
	}

	// Budget capping mirrors Generator.drawResources: total CS workload
	// fits within budgetFrac of the WCET and a quarter of the deadline.
	budget := rt.Time(budgetFrac * float64(wcet))
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
	for total() > budget && len(draws) > 0 {
		i := r.Intn(len(draws))
		draws = append(draws[:i], draws[i+1:]...)
	}
	return draws
}
