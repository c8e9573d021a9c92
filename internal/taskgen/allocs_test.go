package taskgen

import (
	"math/rand"
	"testing"

	"dpcpp/internal/model"
	"dpcpp/internal/rt"
)

// finalizeAllocs is what Task.Finalize allocates for a task with edges and
// resources: two for the adjacency, two for the topological sort, one for
// the per-resource counts and two for the path bounds.
const finalizeAllocs = 7

// TestFinalizeAllocsConstant: Task.Finalize makes the same number of
// allocations on every generated Fig. 2(a) and 2(b) task, however many
// vertices and edges it has.
func TestFinalizeAllocsConstant(t *testing.T) {
	minV, maxV, minE, maxE := 1<<30, 0, 1<<30, 0
	for _, sub := range []string{"2a", "2b"} {
		s, err := Fig2Scenario(sub)
		if err != nil {
			t.Fatal(err)
		}
		g := NewGenerator(s)
		r := rand.New(rand.NewSource(1))
		for _, frac := range []float64{0.2, 0.5, 0.8} {
			ts, err := g.Taskset(r, frac*float64(s.M))
			if err != nil {
				t.Fatalf("%s U/m=%g: %v", sub, frac, err)
			}
			for _, task := range ts.Tasks {
				// Finalize runs once per task, so every run gets a fresh,
				// unfinalized copy (the vertices and edges are only read).
				// AllocsPerRun floors the mean, so enough runs absorb the
				// few allocations a garbage collection starting mid-run
				// makes.
				const runs = 50
				copies := make([]*model.Task, runs+1)
				for k := range copies {
					copies[k] = &model.Task{ID: task.ID, Period: task.Period, Deadline: task.Deadline,
						Priority: task.Priority, Vertices: task.Vertices, Edges: task.Edges, CSLen: task.CSLen}
				}
				next := 0
				allocs := testing.AllocsPerRun(runs, func() {
					if err := copies[next].Finalize(ts.NumResources); err != nil {
						t.Fatal(err)
					}
					next++
				})
				v, e := len(task.Vertices), len(task.Edges)
				if allocs != finalizeAllocs {
					t.Errorf("%s task %d (|V|=%d, |E|=%d): Finalize made %v allocations, want %d",
						sub, task.ID, v, e, allocs, finalizeAllocs)
				}
				minV, maxV, minE, maxE = min(minV, v), max(maxV, v), min(minE, e), max(maxE, e)
			}
		}
	}
	if maxV < 2*minV || maxE < 2*minE {
		t.Fatalf("tasks too alike to show independence: |V| in [%d, %d], |E| in [%d, %d]", minV, maxV, minE, maxE)
	}
	t.Logf("|V| in [%d, %d], |E| in [%d, %d]", minV, maxV, minE, maxE)
}

// TestAssembleTaskAllocsConstant: assembleTask makes the same number of
// allocations for one request unit per resource as for hundreds, on one
// DAG: placing a unit allocates nothing.
func TestAssembleTaskAllocsConstant(t *testing.T) {
	const nVerts, nr = 40, 4
	period := rt.Time(10 * rt.Millisecond)
	r := rand.New(rand.NewSource(1))
	var edges []model.Edge
	for i := 0; i < nVerts; i++ {
		for j := i + 1; j < nVerts; j++ {
			if r.Float64() < 0.1 {
				edges = append(edges, edge(i, j))
			}
		}
	}
	caps, capSum := vertexCaps(nVerts, edges, period)
	wcet := capSum / 2
	allocs := func(units int64) float64 {
		draws := make([]resourceDraw, nr)
		for q := range draws {
			draws[q] = resourceDraw{q: rt.ResourceID(q), n: units, cs: 5 * rt.Microsecond}
		}
		if rt.SatMul(nr*units, 5*rt.Microsecond) > wcet/2 {
			t.Fatalf("%d units per resource leave too little non-critical work", units)
		}
		return testing.AllocsPerRun(50, func() {
			// The task only reads edges, so every run can share them.
			if _, err := assembleTask(r, 0, period, period, wcet, nVerts, edges, caps, capSum, draws, nr); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(1), allocs(300)
	if few != many {
		t.Errorf("assembleTask made %v allocations with 1 unit per resource, %v with 300", few, many)
	}
	t.Logf("%v allocations per task (|V|=%d, |E|=%d)", few, nVerts, len(edges))
}
