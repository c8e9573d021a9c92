package model

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dpcpp/internal/rt"
)

func TestEnumeratePathsGi(t *testing.T) {
	task := paperTaskGi(t)
	if got := task.CountPaths(); got != 4 {
		t.Fatalf("CountPaths = %d, want 4", got)
	}
	paths, ok := task.EnumeratePaths(0)
	if !ok || len(paths) != 4 {
		t.Fatalf("EnumeratePaths: ok=%v len=%d, want 4 paths", ok, len(paths))
	}
	// The longest must be (v1, v5, v7, v8) with L = 10us.
	var best *Path
	for _, p := range paths {
		if best == nil || p.Length > best.Length {
			best = p
		}
	}
	if best.Length != 10*rt.Microsecond {
		t.Errorf("longest enumerated path = %v, want 10us", best.Length)
	}
	want := []rt.VertexID{0, 4, 6, 7}
	for i, x := range best.Vertices {
		if x != want[i] {
			t.Errorf("longest path vertices = %v, want %v", best.Vertices, want)
			break
		}
	}
}

func TestPathRequestVectors(t *testing.T) {
	task := paperTaskGi(t)
	paths, _ := task.EnumeratePaths(0)
	// Path through v2 carries the single l1 request; paths through v3 or v4
	// carry one l2 request each; the path through v5 carries none.
	counts := map[string]int{}
	for _, p := range paths {
		switch {
		case p.Requests(0) == 1 && p.Requests(1) == 0:
			counts["l1"]++
		case p.Requests(0) == 0 && p.Requests(1) == 1:
			counts["l2"]++
		case p.Requests(0) == 0 && p.Requests(1) == 0:
			counts["none"]++
		default:
			t.Errorf("unexpected request vector on path %v: l1=%d l2=%d",
				p.Vertices, p.Requests(0), p.Requests(1))
		}
	}
	if counts["l1"] != 1 || counts["l2"] != 2 || counts["none"] != 1 {
		t.Errorf("path request distribution = %v, want l1:1 l2:2 none:1", counts)
	}
}

func TestPathContains(t *testing.T) {
	task := paperTaskGi(t)
	paths, _ := task.EnumeratePaths(0)
	for _, p := range paths {
		seen := map[rt.VertexID]bool{}
		for _, x := range p.Vertices {
			seen[x] = true
		}
		for x := range task.Vertices {
			if p.Contains(rt.VertexID(x)) != seen[rt.VertexID(x)] {
				t.Errorf("Contains(%d) inconsistent on path %v", x, p.Vertices)
			}
		}
	}
}

func TestEnumeratePathsCap(t *testing.T) {
	task := paperTaskGi(t)
	if _, ok := task.EnumeratePaths(3); ok {
		t.Error("EnumeratePaths(cap=3) succeeded on a 4-path DAG, want cap exceeded")
	}
	if paths, ok := task.EnumeratePaths(4); !ok || len(paths) != 4 {
		t.Errorf("EnumeratePaths(cap=4): ok=%v len=%d, want 4", ok, len(paths))
	}
}

func TestComputePathBoundsGi(t *testing.T) {
	task := paperTaskGi(t)
	b := task.ComputePathBounds()
	if b.MaxLength != 10*rt.Microsecond {
		t.Errorf("MaxLength = %v, want 10us", b.MaxLength)
	}
	if b.MinReq[0] != 0 || b.MaxReq[0] != 1 {
		t.Errorf("l1 request bounds = [%d,%d], want [0,1]", b.MinReq[0], b.MaxReq[0])
	}
	if b.MinReq[1] != 0 || b.MaxReq[1] != 1 {
		t.Errorf("l2 request bounds = [%d,%d], want [0,1]", b.MinReq[1], b.MaxReq[1])
	}
}

// randomDAGTask builds a random DAG task for property tests: edges only go
// from lower to higher vertex index, so it is always acyclic.
func randomDAGTask(r *rand.Rand, nVerts, nRes int) *Task {
	task := NewTask(0, rt.Second, rt.Second)
	for i := 0; i < nVerts; i++ {
		task.AddVertex(rt.Time(1+r.Intn(20)) * rt.Microsecond)
	}
	for i := 0; i < nVerts; i++ {
		for j := i + 1; j < nVerts; j++ {
			if r.Float64() < 0.2 {
				task.AddEdge(rt.VertexID(i), rt.VertexID(j))
			}
		}
	}
	for q := 0; q < nRes; q++ {
		x := rt.VertexID(r.Intn(nVerts))
		if task.Vertices[x].WCET >= 2*rt.Microsecond {
			task.AddRequest(x, rt.ResourceID(q), 1, rt.Microsecond)
		}
	}
	if err := task.Finalize(nRes); err != nil {
		panic(err)
	}
	return task
}

// boundsDAGTask builds a random DAG task for the path-bounds properties: 3
// to 6 resources with one unused index strictly between used ones,
// multi-count requests with per-resource CS lengths, and sparse edges so
// that most tasks have several heads and several tails.
func boundsDAGTask(r *rand.Rand) *Task {
	nVerts := 2 + r.Intn(9)
	nRes := 3 + r.Intn(4)
	gap := 1 + r.Intn(nRes-2)
	task := NewTask(0, rt.Second, rt.Second)
	for i := 0; i < nVerts; i++ {
		task.AddVertex(rt.Time(50+r.Intn(50)) * rt.Microsecond)
	}
	edgeProb := []float64{0.05, 0.2, 0.4}[r.Intn(3)]
	for i := 0; i < nVerts; i++ {
		for j := i + 1; j < nVerts; j++ {
			if r.Float64() < edgeProb {
				task.AddEdge(rt.VertexID(i), rt.VertexID(j))
			}
		}
	}
	// The outermost resources go first, so they always find room and the
	// unused gap index really lies between used ones.
	order := []int{0, nRes - 1}
	for q := 1; q < nRes-1; q++ {
		if q != gap {
			order = append(order, q)
		}
	}
	need := make([]rt.Time, nVerts)
	for _, q := range order {
		cs := rt.Time(1+r.Intn(3)) * rt.Microsecond
		for k := 1 + r.Intn(3); k > 0; k-- {
			x := r.Intn(nVerts)
			n := 1 + r.Intn(3)
			if need[x]+rt.Time(n)*cs > task.Vertices[x].WCET {
				continue
			}
			need[x] += rt.Time(n) * cs
			task.AddRequest(rt.VertexID(x), rt.ResourceID(q), n, cs)
		}
	}
	if err := task.Finalize(nRes); err != nil {
		panic(err)
	}
	return task
}

// enumeratedBounds returns the extremes of every PathBounds field over the
// task's enumerated paths: the reference the DP must reproduce exactly.
func enumeratedBounds(task *Task, paths []*Path) PathBounds {
	nr := len(task.CSLen)
	b := PathBounds{MinLength: rt.Infinity, MinNonCrit: rt.Infinity,
		MinReq: make([]int64, nr), MaxReq: make([]int64, nr)}
	for q := range b.MinReq {
		b.MinReq[q] = 1 << 62
	}
	for _, p := range paths {
		b.MaxLength = max(b.MaxLength, p.Length)
		b.MinLength = min(b.MinLength, p.Length)
		b.MinNonCrit = min(b.MinNonCrit, p.NonCrit)
		for q := 0; q < nr; q++ {
			n := p.Requests(rt.ResourceID(q))
			b.MinReq[q] = min(b.MinReq[q], n)
			b.MaxReq[q] = max(b.MaxReq[q], n)
		}
	}
	return b
}

// boundsCoverage counts how often the bounds properties saw the shapes
// they are meant to exercise, so a generator change cannot silently stop
// covering them.
type boundsCoverage struct{ multiHead, multiTail, multiCount int }

func (c *boundsCoverage) observe(task *Task) {
	if len(task.Heads()) > 1 {
		c.multiHead++
	}
	if len(task.Tails()) > 1 {
		c.multiTail++
	}
	for _, v := range task.Vertices {
		for _, r := range v.Requests {
			if r.Count > 1 {
				c.multiCount++
				return
			}
		}
	}
}

func (c *boundsCoverage) check(t *testing.T) {
	t.Helper()
	if c.multiHead == 0 || c.multiTail == 0 || c.multiCount == 0 {
		t.Errorf("generator coverage too thin: %+v", *c)
	}
}

// Property: every enumerated path lies within all five bounds, for both
// the bounds Finalize stored and a fresh ComputePathBounds.
func TestPathBoundsDominateEnumeration(t *testing.T) {
	var cov boundsCoverage
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		task := boundsDAGTask(r)
		cov.observe(task)
		paths, ok := task.EnumeratePaths(100000)
		if !ok {
			return true // cap exceeded: nothing to check
		}
		fresh := task.ComputePathBounds()
		for _, b := range []*PathBounds{task.PathBounds(), &fresh} {
			if b.MaxLength != task.LongestPath() {
				return false
			}
			for _, p := range paths {
				if p.Length > b.MaxLength || p.Length < b.MinLength || p.NonCrit < b.MinNonCrit {
					return false
				}
				for q := range task.CSLen {
					n := p.Requests(rt.ResourceID(q))
					if n < b.MinReq[q] || n > b.MaxReq[q] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	cov.check(t)
}

// Property: the DP bounds are tight — every field equals the extreme over
// the enumerated paths — and the stored bounds equal a fresh compute.
func TestPathBoundsTight(t *testing.T) {
	var cov boundsCoverage
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		task := boundsDAGTask(r)
		cov.observe(task)
		paths, ok := task.EnumeratePaths(100000)
		if !ok {
			return true
		}
		want := enumeratedBounds(task, paths)
		return reflect.DeepEqual(*task.PathBounds(), want) &&
			reflect.DeepEqual(task.ComputePathBounds(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	cov.check(t)
}

// Property: CountPaths agrees with enumeration.
func TestCountPathsMatchesEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		task := randomDAGTask(r, 2+r.Intn(8), 1)
		paths, ok := task.EnumeratePaths(100000)
		if !ok {
			return true
		}
		return task.CountPaths() == int64(len(paths))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: every enumerated path is a valid head-to-tail chain of edges.
func TestEnumeratedPathsAreValidChains(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		task := randomDAGTask(r, 2+r.Intn(8), 1)
		paths, ok := task.EnumeratePaths(100000)
		if !ok {
			return true
		}
		isEdge := map[[2]rt.VertexID]bool{}
		for _, e := range task.Edges {
			isEdge[[2]rt.VertexID{e.From, e.To}] = true
		}
		for _, p := range paths {
			if len(task.Pred(p.Vertices[0])) != 0 {
				return false
			}
			if len(task.Succ(p.Vertices[len(p.Vertices)-1])) != 0 {
				return false
			}
			for i := 0; i+1 < len(p.Vertices); i++ {
				if !isEdge[[2]rt.VertexID{p.Vertices[i], p.Vertices[i+1]}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDiamondPathCount(t *testing.T) {
	// k independent diamonds in sequence gives 2^k paths.
	task := NewTask(0, rt.Second, rt.Second)
	prev := task.AddVertex(rt.Microsecond)
	k := 10
	for i := 0; i < k; i++ {
		a := task.AddVertex(rt.Microsecond)
		b := task.AddVertex(rt.Microsecond)
		join := task.AddVertex(rt.Microsecond)
		task.AddEdge(prev, a)
		task.AddEdge(prev, b)
		task.AddEdge(a, join)
		task.AddEdge(b, join)
		prev = join
	}
	if err := task.Finalize(0); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if got, want := task.CountPaths(), int64(1<<k); got != want {
		t.Errorf("CountPaths = %d, want %d", got, want)
	}
}

// The longest path saturates instead of wrapping when decoded WCETs are
// absurd, like every other sum of times.
func TestLongestPathSaturates(t *testing.T) {
	task := NewTask(0, rt.Second, rt.Second)
	a := task.AddVertex(rt.Infinity / 2)
	b := task.AddVertex(rt.Infinity/2 + 2)
	task.AddEdge(a, b)
	if err := task.Finalize(0); err != nil {
		t.Fatal(err)
	}
	if got := task.LongestPath(); got != rt.Infinity {
		t.Errorf("LongestPath = %d, want rt.Infinity", got)
	}
}
