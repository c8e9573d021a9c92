package model

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"dpcpp/internal/rt"
)

func TestEnumerateViewsGi(t *testing.T) {
	task := paperTaskGi(t)
	views, ok := task.EnumerateViews(0, nil)
	if !ok {
		t.Fatal("EnumerateViews: cap exceeded without a cap")
	}
	// Gi has 4 paths and 3 distinct request vectors: (l1), (l2), (none).
	if len(views) != 3 {
		t.Fatalf("got %d views, want 3: %+v", len(views), views)
	}
	byKey := map[string]*PathView{}
	for i := range views {
		v := &views[i]
		byKey[fmt.Sprintf("%d,%d", v.NReq[0], v.NReq[1])] = v
	}
	l1 := byKey["1,0"]
	l2 := byKey["0,1"]
	none := byKey["0,0"]
	if l1 == nil || l2 == nil || none == nil {
		t.Fatalf("missing signature: %+v", views)
	}
	// The request-free path (v1,v5,v7,v8) is the overall longest.
	if none.Length != 10*rt.Microsecond {
		t.Errorf("request-free view length = %v, want 10us", none.Length)
	}
	// The two l2 paths have lengths 8us (via v3) and 8us (via v4); both
	// carry one 1us critical section, so NonCrit = Length - 1us.
	if l2.NonCrit != l2.Length-1*rt.Microsecond {
		t.Errorf("l2 view NonCrit = %v with Length %v, want Length-1us",
			l2.NonCrit, l2.Length)
	}
}

func TestEnumerateViewsCapMatchesEnumeratePaths(t *testing.T) {
	task := paperTaskGi(t)
	if _, ok := task.EnumerateViews(3, nil); ok {
		t.Error("EnumerateViews(cap=3) succeeded on a 4-path DAG, want cap exceeded")
	}
	if views, ok := task.EnumerateViews(4, nil); !ok || len(views) != 3 {
		t.Errorf("EnumerateViews(cap=4): ok=%v len=%d, want 3 views", ok, len(views))
	}
}

// Property: EnumerateViews is exactly EnumeratePaths grouped by request
// vector, carrying the per-group maxima.
func TestViewsMatchEnumerationGrouping(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		task := randomDAGTask(r, 2+r.Intn(9), 2)
		paths, ok := task.EnumeratePaths(100000)
		if !ok {
			return true
		}
		type group struct {
			maxLen, maxNonCrit rt.Time
		}
		groups := map[[2]int64]*group{}
		for _, p := range paths {
			k := [2]int64{p.Requests(0), p.Requests(1)}
			g := groups[k]
			if g == nil {
				g = &group{}
				groups[k] = g
			}
			if p.Length > g.maxLen {
				g.maxLen = p.Length
			}
			if p.NonCrit > g.maxNonCrit {
				g.maxNonCrit = p.NonCrit
			}
		}
		views, ok := task.EnumerateViews(100000, nil)
		if !ok || len(views) != len(groups) {
			return false
		}
		for i := range views {
			v := &views[i]
			g := groups[[2]int64{v.NReq[0], v.NReq[1]}]
			if g == nil {
				return false
			}
			if v.Length != g.maxLen || v.NonCrit != g.maxNonCrit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// exponentialDAG builds the benchmark topology: k stacked diamonds with a
// single request at the head, i.e. 2^k paths collapsing into one signature.
func exponentialDAG(tb testing.TB, k int) *Task {
	task := NewTask(0, 10*rt.Millisecond, 10*rt.Millisecond)
	prev := task.AddVertex(10 * rt.Microsecond)
	for i := 0; i < k; i++ {
		x := task.AddVertex(20 * rt.Microsecond)
		y := task.AddVertex(30 * rt.Microsecond)
		j := task.AddVertex(10 * rt.Microsecond)
		task.AddEdge(prev, x)
		task.AddEdge(prev, y)
		task.AddEdge(x, j)
		task.AddEdge(y, j)
		prev = j
	}
	task.AddRequest(0, 0, 1, 5*rt.Microsecond)
	if err := task.Finalize(1); err != nil {
		tb.Fatal(err)
	}
	return task
}

func TestEnumerateViewsCollapsesExponentialDAG(t *testing.T) {
	task := exponentialDAG(t, 14)
	views, ok := task.EnumerateViews(1<<14, nil)
	if !ok {
		t.Fatal("cap exceeded unexpectedly")
	}
	if len(views) != 1 {
		t.Fatalf("got %d views, want 1 (all paths share one signature)", len(views))
	}
	if views[0].Length != task.LongestPath() {
		t.Errorf("view length %v != longest path %v", views[0].Length, task.LongestPath())
	}
}

// The view pipeline must stay allocation-light even on DAGs whose path
// count is exponential: the collapse runs on vertices, not paths.
func TestEnumerateViewsAllocs(t *testing.T) {
	task := exponentialDAG(t, 14)
	allocs := testing.AllocsPerRun(10, func() {
		if _, ok := task.EnumerateViews(1<<14, nil); !ok {
			t.Fatal("cap exceeded")
		}
	})
	// ~5 allocs per vertex (61 vertices) plus fixed overhead; the legacy
	// per-path enumerator needed >65000.
	if allocs > 500 {
		t.Errorf("EnumerateViews allocates %v times per run, want <= 500", allocs)
	}
}

func TestVisitPathsDeepChain(t *testing.T) {
	// A 100k-vertex chain would previously grow the goroutine stack one
	// recursion frame per vertex; the explicit stack must handle it.
	task := NewTask(0, rt.Second, rt.Second)
	prev := task.AddVertex(rt.Microsecond)
	const n = 100000
	for i := 1; i < n; i++ {
		v := task.AddVertex(rt.Microsecond)
		task.AddEdge(prev, v)
		prev = v
	}
	if err := task.Finalize(0); err != nil {
		t.Fatal(err)
	}
	paths, ok := task.EnumeratePaths(0)
	if !ok || len(paths) != 1 {
		t.Fatalf("chain enumeration: ok=%v len=%d", ok, len(paths))
	}
	if got := len(paths[0].Vertices); got != n {
		t.Errorf("chain path has %d vertices, want %d", got, n)
	}
	views, ok := task.EnumerateViews(0, nil)
	if !ok || len(views) != 1 || views[0].Length != rt.Time(n)*rt.Microsecond {
		t.Errorf("chain views: ok=%v %+v", ok, views)
	}
}
