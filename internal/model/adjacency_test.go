package model

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"

	"dpcpp/internal/rt"
)

// randomEdges draws up to 3n edges over n vertices, out of order and with
// repeats. With dag set every edge goes from a lower to a higher index, so
// the graph stays acyclic; otherwise any pair of distinct vertices may be
// joined, cycles included.
func randomEdges(r *rand.Rand, n int, dag bool) []Edge {
	if n < 2 {
		return nil
	}
	edges := make([]Edge, r.Intn(3*n+1))
	for i := range edges {
		a, b := r.Intn(n), r.Intn(n-1)
		if b >= a {
			b++
		}
		if dag && a > b {
			a, b = b, a
		}
		edges[i] = Edge{From: rt.VertexID(a), To: rt.VertexID(b)}
		if i > 0 && r.Intn(4) == 0 {
			edges[i] = edges[r.Intn(i)] // a repeat
		}
	}
	return edges
}

// TestAdjacencyIsSortedDedupedEdgeSet: on random edge lists, repeats and
// any order included, every successor and predecessor list is exactly the
// sorted, repeat-free set of that vertex's neighbours.
func TestAdjacencyIsSortedDedupedEdgeSet(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := r.Intn(12)
		edges := randomEdges(r, n, trial%2 == 0)
		a := NewAdjacency(n, edges)

		succ := make([]map[rt.VertexID]bool, n)
		pred := make([]map[rt.VertexID]bool, n)
		for x := range succ {
			succ[x], pred[x] = map[rt.VertexID]bool{}, map[rt.VertexID]bool{}
		}
		for _, e := range edges {
			succ[e.From][e.To] = true
			pred[e.To][e.From] = true
		}
		for x := 0; x < n; x++ {
			if got, want := a.Succ(rt.VertexID(x)), sortedSet(succ[x]); !slices.Equal(got, want) {
				t.Fatalf("edges %v: Succ(%d) = %v, want %v", edges, x, got, want)
			}
			if got, want := a.Pred(rt.VertexID(x)), sortedSet(pred[x]); !slices.Equal(got, want) {
				t.Fatalf("edges %v: Pred(%d) = %v, want %v", edges, x, got, want)
			}
		}
	}
}

func sortedSet(m map[rt.VertexID]bool) []rt.VertexID {
	out := make([]rt.VertexID, 0, len(m))
	for y := range m {
		out = append(out, y)
	}
	slices.Sort(out)
	return out
}

// TestCanonBodyMatchesSortedCopy: the canonical body walked off the
// adjacency and the sorted request profiles is byte-identical to the one
// built by copying and sorting the edge list and each vertex's requested
// resources, and canonBodyLen sizes it exactly.
func TestCanonBodyMatchesSortedCopy(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(12)
		nr := r.Intn(14)
		cs := make([]rt.Time, nr)
		for q := range cs {
			cs[q] = 1 + r.Int63n(100)
		}
		task := NewTask(rt.TaskID(trial), 1_000_000, 1_000_000)
		for x := 0; x < n; x++ {
			task.AddVertex(1_000 + r.Int63n(1_000_000))
			for k := r.Intn(4); k > 0 && nr > 0; k-- {
				q := r.Intn(nr) // q may repeat, and the count may be 0
				task.AddRequest(rt.VertexID(x), rt.ResourceID(q), r.Intn(3), cs[q])
			}
		}
		task.Edges = randomEdges(r, n, true)
		if err := task.Finalize(nr); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := sortedCopyCanonBody(task)
		if got := task.appendCanonBody(nil); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: canonical body\n%s\nwant\n%s", trial, got, want)
		}
		if got := task.canonBodyLen(); got != len(want) {
			t.Fatalf("trial %d: canonBodyLen %d, body is %d bytes", trial, got, len(want))
		}
	}
}

// sortedCopyCanonBody is the canonical body as built before the adjacency
// was sorted: it copies and sorts the edge list, skipping repeats, and
// sorts each vertex's positive-count resources.
func sortedCopyCanonBody(t *Task) []byte {
	var b []byte
	for _, v := range t.Vertices {
		b = append(b, "v|"...)
		b = strconv.AppendInt(b, v.WCET, 10)
		counts := map[rt.ResourceID]int{}
		var qs []int
		for _, r := range v.Requests {
			counts[r.Resource] = r.Count
			if r.Count > 0 {
				qs = append(qs, int(r.Resource))
			}
		}
		sort.Ints(qs)
		for _, q := range qs {
			b = append(b, '|')
			b = strconv.AppendInt(b, int64(q), 10)
			b = append(b, ':')
			b = strconv.AppendInt(b, int64(counts[rt.ResourceID(q)]), 10)
		}
		b = append(b, '\n')
	}
	edges := append([]Edge(nil), t.Edges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	for i, e := range edges {
		if i > 0 && e == edges[i-1] {
			continue
		}
		b = append(b, "e|"...)
		b = strconv.AppendInt(b, int64(e.From), 10)
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(e.To), 10)
		b = append(b, '\n')
	}
	for q := range t.CSLen {
		if t.NumRequests(rt.ResourceID(q)) > 0 {
			b = append(b, "cs|"...)
			b = strconv.AppendInt(b, int64(q), 10)
			b = append(b, ':')
			b = strconv.AppendInt(b, t.CSLen[q], 10)
			b = append(b, '\n')
		}
	}
	return b
}
