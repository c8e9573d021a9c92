package taskgen

import (
	"math"
	"math/rand"
	"testing"

	"dpcpp/internal/rt"
)

func testScenario() Scenario {
	return Scenario{
		M:       16,
		NumRes:  IntRange{4, 8},
		UAvg:    1.5,
		PAccess: 0.5,
		NReq:    IntRange{1, 50},
		CSLen:   TimeRange{50 * rt.Microsecond, 100 * rt.Microsecond},
	}.DefaultStructure()
}

func TestGenerateTasksetBasics(t *testing.T) {
	g := NewGenerator(testScenario())
	r := rand.New(rand.NewSource(42))
	ts, err := g.Taskset(r, 6.0)
	if err != nil {
		t.Fatal(err)
	}
	if ts.NumProcs != 16 {
		t.Errorf("NumProcs = %d, want 16", ts.NumProcs)
	}
	if ts.NumResources < 4 || ts.NumResources > 8 {
		t.Errorf("NumResources = %d, want in [4,8]", ts.NumResources)
	}
	got := ts.TotalUtilization()
	if math.Abs(got-6.0) > 0.01 {
		t.Errorf("TotalUtilization = %g, want ~6.0", got)
	}
}

func TestGeneratedTasksSatisfyPlausibility(t *testing.T) {
	g := NewGenerator(testScenario())
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		total := 2.0 + r.Float64()*10
		ts, err := g.Taskset(r, total)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, task := range ts.Tasks {
			// L* < D/2 (paper Sec. VII-A).
			if task.LongestPath() >= task.Deadline/2 {
				t.Errorf("seed %d task %d: L*=%v >= D/2=%v",
					seed, task.ID, task.LongestPath(), task.Deadline/2)
			}
			// C_{i,x} >= sum_q N_{i,x,q} L_{i,q} holds because Finalize
			// validated it; also check non-critical WCET is non-negative.
			if task.NonCritWCET() < 0 {
				t.Errorf("seed %d task %d: negative non-critical WCET", seed, task.ID)
			}
			// Vertex count within the scenario range.
			if n := len(task.Vertices); n < 10 || n > 100 {
				t.Errorf("seed %d task %d: |V|=%d outside [10,100]", seed, task.ID, n)
			}
			// Period within the log-uniform range.
			if task.Period < 10*rt.Millisecond || task.Period > 1000*rt.Millisecond {
				t.Errorf("seed %d task %d: period %v outside [10ms,1s]",
					seed, task.ID, task.Period)
			}
			if task.Deadline != task.Period {
				t.Errorf("seed %d task %d: implicit deadline expected", seed, task.ID)
			}
		}
	}
}

func TestGeneratedUtilizationsInRange(t *testing.T) {
	g := NewGenerator(testScenario())
	for seed := int64(100); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		ts, err := g.Taskset(r, 8.0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(ts.Tasks) < 2 {
			continue
		}
		for _, task := range ts.Tasks {
			u := task.Utilization()
			// Allow a small tolerance: WCET rounding to whole nanoseconds
			// and the +1ns floor on empty vertices shift utilization by
			// O(1e-9) relative.
			if u <= 1.0-1e-6 || u > 2*g.Scenario.UAvg+1e-6 {
				t.Errorf("seed %d task %d: utilization %g outside (1, %g]",
					seed, task.ID, u, 2*g.Scenario.UAvg)
			}
		}
	}
}

func TestGeneratedCSWorkloadBudget(t *testing.T) {
	g := NewGenerator(testScenario())
	for seed := int64(200); seed < 215; seed++ {
		r := rand.New(rand.NewSource(seed))
		ts, err := g.Taskset(r, 10.0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, task := range ts.Tasks {
			var cs rt.Time
			for q := 0; q < ts.NumResources; q++ {
				cs += task.CSWork(rt.ResourceID(q))
			}
			if float64(cs) > maxCSFraction*float64(task.WCET())+1 {
				t.Errorf("seed %d task %d: CS workload %v exceeds %g of WCET %v",
					seed, task.ID, cs, maxCSFraction, task.WCET())
			}
			if cs > task.Deadline/4 {
				t.Errorf("seed %d task %d: CS workload %v exceeds D/4=%v",
					seed, task.ID, cs, task.Deadline/4)
			}
		}
	}
}

func TestGenerateSingleTaskForLowUtilization(t *testing.T) {
	g := NewGenerator(testScenario())
	r := rand.New(rand.NewSource(9))
	ts, err := g.Taskset(r, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Tasks) != 1 {
		t.Errorf("total=1.0 generated %d tasks, want 1", len(ts.Tasks))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := NewGenerator(testScenario())
	a, err := g.Taskset(rand.New(rand.NewSource(77)), 5.0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Taskset(rand.New(rand.NewSource(77)), 5.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tasks) != len(b.Tasks) {
		t.Fatalf("nondeterministic task count: %d vs %d", len(a.Tasks), len(b.Tasks))
	}
	for i := range a.Tasks {
		x, y := a.Tasks[i], b.Tasks[i]
		if x.Period != y.Period || x.WCET() != y.WCET() || len(x.Vertices) != len(y.Vertices) {
			t.Errorf("task %d differs between identical seeds", i)
		}
	}
}

func TestGridHas216Scenarios(t *testing.T) {
	grid := Grid()
	if len(grid) != 216 {
		t.Fatalf("Grid() returned %d scenarios, want 216", len(grid))
	}
	names := map[string]bool{}
	for _, s := range grid {
		if names[s.Name()] {
			t.Errorf("duplicate scenario %s", s.Name())
		}
		names[s.Name()] = true
		if s.EdgeProb != 0.1 || s.VertsRange != (IntRange{10, 100}) {
			t.Errorf("scenario %s missing default structure", s.Name())
		}
	}
}

func TestFig2Scenarios(t *testing.T) {
	for _, sub := range []string{"2a", "2b", "2c", "2d"} {
		s, err := Fig2Scenario(sub)
		if err != nil {
			t.Fatalf("%s: %v", sub, err)
		}
		if s.NReq != (IntRange{1, 50}) {
			t.Errorf("%s: NReq = %v", sub, s.NReq)
		}
		if s.CSLen.Lo != 50*rt.Microsecond || s.CSLen.Hi != 100*rt.Microsecond {
			t.Errorf("%s: CSLen = %v", sub, s.CSLen)
		}
	}
	a, _ := Fig2Scenario("2a")
	if a.M != 16 || a.PAccess != 0.5 || a.UAvg != 1.5 {
		t.Errorf("2a misconfigured: %+v", a)
	}
	d, _ := Fig2Scenario("2d")
	if d.M != 32 || d.PAccess != 1 || d.UAvg != 2 {
		t.Errorf("2d misconfigured: %+v", d)
	}
	if _, err := Fig2Scenario("2z"); err == nil {
		t.Error("unknown subplot accepted")
	}
}

func TestUtilizationPoints(t *testing.T) {
	pts := UtilizationPoints(16)
	if pts[0] != 1.0 {
		t.Errorf("first point = %g, want 1.0", pts[0])
	}
	if last := pts[len(pts)-1]; math.Abs(last-16.0) > 1e-9 {
		t.Errorf("last point = %g, want 16.0", last)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i] <= pts[i-1] {
			t.Errorf("points not strictly increasing at %d: %g, %g", i, pts[i-1], pts[i])
		}
		if step := pts[i] - pts[i-1]; step > 0.8+1e-9 {
			t.Errorf("step at %d = %g, want <= 0.8", i, step)
		}
	}
}

func TestGenerateHeavyContentionScenario(t *testing.T) {
	// The paper's hardest configuration: m=32, nr in [8,16], pr=1.
	s, err := Fig2Scenario("2d")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(s)
	r := rand.New(rand.NewSource(11))
	ts, err := g.Taskset(r, 20.0)
	if err != nil {
		t.Fatal(err)
	}
	// With pr=1 every task uses every resource unless budget pruning
	// dropped some; verify at least substantial sharing happened.
	shared := 0
	for q := 0; q < ts.NumResources; q++ {
		if len(ts.SharedBy(rt.ResourceID(q))) >= 2 {
			shared++
		}
	}
	if shared == 0 {
		t.Error("heavy-contention scenario produced no shared resources")
	}
}
