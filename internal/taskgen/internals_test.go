package taskgen

import (
	"math/rand"
	"testing"

	"dpcpp/internal/rt"
)

func TestWaterfillRespectsCapsAndBudget(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	caps := []rt.Time{100, 50, 200, 10}
	csNeed := []rt.Time{20, 0, 50, 10}
	budget := rt.Time(200)
	alloc := waterfill(r, caps, csNeed, budget)
	if alloc == nil {
		t.Fatal("waterfill failed on feasible input")
	}
	var total rt.Time
	for x := range alloc {
		if alloc[x] < 0 {
			t.Errorf("negative allocation at %d", x)
		}
		if csNeed[x]+alloc[x] > caps[x] {
			t.Errorf("vertex %d exceeds cap: %d + %d > %d", x, csNeed[x], alloc[x], caps[x])
		}
		total += alloc[x]
	}
	if total != budget {
		t.Errorf("allocated %d, want %d", total, budget)
	}
}

func TestWaterfillRejectsInfeasible(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	caps := []rt.Time{10, 10}
	csNeed := []rt.Time{5, 5}
	if alloc := waterfill(r, caps, csNeed, 11); alloc != nil {
		t.Error("waterfill accepted budget beyond total slack")
	}
	if alloc := waterfill(r, caps, csNeed, 10); alloc == nil {
		t.Error("waterfill rejected exactly-fitting budget")
	}
}

// TestPickWithRoom checks the per-unit scan that TestPlaceRequestsMatchesScan
// holds placeRequests to.
func TestPickWithRoom(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	caps := []rt.Time{10, 3, 20}
	csNeed := []rt.Time{8, 0, 20}
	counts := map[int]int{}
	for i := 0; i < 200; i++ {
		x, ok := pickWithRoom(r, caps, csNeed, 3)
		if !ok {
			t.Fatal("pickWithRoom failed with a viable vertex available")
		}
		counts[x]++
	}
	// Only vertex 1 has room for a 3-unit CS (0 has 2 slack, 2 has 0).
	if counts[0] != 0 || counts[2] != 0 || counts[1] != 200 {
		t.Errorf("pickWithRoom distribution = %v, want only vertex 1", counts)
	}
	if _, ok := pickWithRoom(r, caps, csNeed, 30); ok {
		t.Error("pickWithRoom found room for an oversized CS")
	}
}

func TestDrawResourcesBudget(t *testing.T) {
	g := NewGenerator(testScenario())
	r := rand.New(rand.NewSource(4))
	wcet := rt.Time(10 * rt.Millisecond)
	deadline := rt.Time(20 * rt.Millisecond)
	for i := 0; i < 50; i++ {
		draws := g.drawResources(r, 8, wcet, deadline, 20)
		var total rt.Time
		for _, d := range draws {
			if d.n < 1 {
				t.Fatalf("draw with n < 1: %+v", d)
			}
			if d.cs < g.Scenario.CSLen.Lo || d.cs > g.Scenario.CSLen.Hi {
				t.Fatalf("CS length %d outside scenario range", d.cs)
			}
			total += rt.Time(d.n) * d.cs
		}
		budget := rt.Time(g.MaxCSFraction * float64(wcet))
		if q := deadline / 4; q < budget {
			budget = q
		}
		if total > budget {
			t.Fatalf("CS total %d exceeds budget %d", total, budget)
		}
	}
}

func TestGeneratorEdgeProbDecaysToFeasible(t *testing.T) {
	// A scenario that is nearly infeasible at p=0.1 (huge utilization over
	// a short period forces flat DAGs); the retry loop must find a
	// feasible structure by decaying the edge probability.
	s := Scenario{
		M:          8,
		NumRes:     IntRange{0, 0},
		UAvg:       2,
		PAccess:    0,
		NReq:       IntRange{1, 1},
		CSLen:      TimeRange{rt.Microsecond, rt.Microsecond},
		VertsRange: IntRange{10, 10},
		EdgeProb:   0.9, // extremely chain-y; caps will fail until decayed
		PeriodLo:   10 * rt.Millisecond,
		PeriodHi:   10 * rt.Millisecond,
	}
	g := NewGenerator(s)
	r := rand.New(rand.NewSource(5))
	ts, err := g.Taskset(r, 3.9) // single task with U=3.9 (hi = 2*UAvg = 4)
	if err != nil {
		t.Fatalf("generator failed to decay to a feasible structure: %v", err)
	}
	for _, task := range ts.Tasks {
		if task.LongestPath() >= task.Deadline/2 {
			t.Errorf("task %d: L* constraint violated", task.ID)
		}
	}
}
