package taskgen

import (
	"math/rand"
	"slices"
	"testing"

	"dpcpp/internal/model"
	"dpcpp/internal/rt"
)

// adjacencyChainHeights is chainHeights as it was before the counting-sort
// sweeps: the dynamic program over a model.Adjacency's predecessor and
// successor lists.
func adjacencyChainHeights(nVerts int, edges []model.Edge) []int {
	adj := model.NewAdjacency(nVerts, edges)
	fwd := make([]int, nVerts)
	bwd := make([]int, nVerts)
	h := make([]int, nVerts)
	for x := range fwd {
		fwd[x] = 1
		for _, p := range adj.Pred(rt.VertexID(x)) {
			fwd[x] = max(fwd[x], fwd[p]+1)
		}
	}
	for x := nVerts - 1; x >= 0; x-- {
		bwd[x] = 1
		for _, s := range adj.Succ(rt.VertexID(x)) {
			bwd[x] = max(bwd[x], bwd[s]+1)
		}
		h[x] = fwd[x] + bwd[x] - 1
	}
	return h
}

// perVertexChainHeights is chainHeights as it was before the adjacency
// helper existed: per-vertex successor and predecessor slices built by append,
// repeats and edge order kept.
func perVertexChainHeights(nVerts int, edges []model.Edge) []int {
	succ := make([][]int, nVerts)
	pred := make([][]int, nVerts)
	for _, e := range edges {
		succ[e.From] = append(succ[e.From], int(e.To))
		pred[e.To] = append(pred[e.To], int(e.From))
	}
	fwd := make([]int, nVerts)
	bwd := make([]int, nVerts)
	for x := 0; x < nVerts; x++ {
		fwd[x] = 1
		for _, p := range pred[x] {
			if fwd[p]+1 > fwd[x] {
				fwd[x] = fwd[p] + 1
			}
		}
	}
	h := make([]int, nVerts)
	for x := nVerts - 1; x >= 0; x-- {
		bwd[x] = 1
		for _, s := range succ[x] {
			if bwd[s]+1 > bwd[x] {
				bwd[x] = bwd[s] + 1
			}
		}
		h[x] = fwd[x] + bwd[x] - 1
	}
	return h
}

// TestChainHeightsMatchesPerVertexSlices: chainHeights equals both earlier
// versions, the per-vertex-slice one and the adjacency-based one, on
// Erdős–Rényi graphs, on the same graphs with repeated and shuffled edges,
// and on every adversarial shape, whose fork-joins and layers emit edges
// out of source order and whose layered DAGs repeat some.
func TestChainHeightsMatchesPerVertexSlices(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	check := func(what string, n int, edges []model.Edge) {
		t.Helper()
		got := chainHeights(n, edges)
		if want := perVertexChainHeights(n, edges); !slices.Equal(got, want) {
			t.Fatalf("%s, %d vertices, edges %v: chainHeights %v, per-vertex slices %v", what, n, edges, got, want)
		}
		if want := adjacencyChainHeights(n, edges); !slices.Equal(got, want) {
			t.Fatalf("%s, %d vertices, edges %v: chainHeights %v, adjacency %v", what, n, edges, got, want)
		}
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(40)
		p := r.Float64()
		var edges []model.Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < p {
					edges = append(edges, edge(i, j))
				}
			}
		}
		check("Erdős–Rényi", n, edges)
		if len(edges) == 0 {
			continue
		}
		for k := r.Intn(len(edges)) + 1; k > 0; k-- {
			edges = append(edges, edges[r.Intn(len(edges))])
		}
		r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		check("Erdős–Rényi, repeated and shuffled", n, edges)
	}
	a := NewAdversarial()
	for _, shape := range Shapes() {
		for trial := 0; trial < 100; trial++ {
			n, edges := a.structure(r, shape)
			check(shape.String(), n, edges)
		}
	}
}
