package model

import "dpcpp/internal/rt"

// Adjacency holds the successor and predecessor lists of a DAG's vertices
// in compressed sparse row (CSR) form: one offset array per direction and
// one flat neighbour array per direction, so the whole structure is two
// allocations however many vertices and edges it has. Every list is sorted
// ascending and holds each neighbour once: a repeated edge is the same
// precedence constraint, and the canonical hash keeps it once too.
//
// The zero Adjacency has no vertices.
type Adjacency struct {
	succOff, predOff []int // vertex x's lists span [off[x], off[x+1])
	succ, pred       []rt.VertexID
}

// NewAdjacency builds the adjacency of n vertices from an edge list by
// counting sort, in O(V+E). Every edge must reference a vertex in [0, n).
//
// Bucketing the sources by target and then walking the targets in
// ascending order into the source buckets leaves every successor list
// sorted, with repeats adjacent; dropping them and bucketing the result
// back by target gives sorted, repeat-free predecessor lists.
func NewAdjacency(n int, edges []Edge) Adjacency {
	offs := make([]int, 2*(n+1))
	flat := make([]rt.VertexID, 2*len(edges))
	a := Adjacency{
		succOff: offs[: n+1 : n+1], predOff: offs[n+1:],
		succ: flat[:len(edges):len(edges)], pred: flat[len(edges):],
	}

	// Sources bucketed by target, in edge order, repeats included.
	for _, e := range edges {
		a.predOff[e.To+1]++
	}
	prefixSum(a.predOff)
	for _, e := range edges {
		a.pred[a.predOff[e.To]] = e.From
		a.predOff[e.To]++
	}
	unshift(a.predOff)

	// Targets in ascending order into the source buckets.
	for _, e := range edges {
		a.succOff[e.From+1]++
	}
	prefixSum(a.succOff)
	for y := 0; y < n; y++ {
		for _, x := range a.pred[a.predOff[y]:a.predOff[y+1]] {
			a.succ[a.succOff[x]] = rt.VertexID(y)
			a.succOff[x]++
		}
	}
	unshift(a.succOff)

	// Drop the repeats, compacting the successor lists in place.
	w, start := 0, 0
	for x := 0; x < n; x++ {
		end := a.succOff[x+1]
		a.succOff[x] = w
		for _, y := range a.succ[start:end] {
			if w == a.succOff[x] || a.succ[w-1] != y {
				a.succ[w] = y
				w++
			}
		}
		start = end
	}
	a.succOff[n] = w
	a.succ = a.succ[:w:w]

	// Sources in ascending order into the target buckets.
	a.pred = a.pred[:w]
	clear(a.predOff)
	for _, y := range a.succ {
		a.predOff[y+1]++
	}
	prefixSum(a.predOff)
	for x := 0; x < n; x++ {
		for _, y := range a.Succ(rt.VertexID(x)) {
			a.pred[a.predOff[y]] = rt.VertexID(x)
			a.predOff[y]++
		}
	}
	unshift(a.predOff)
	return a
}

// prefixSum turns per-bucket counts stored at off[x+1] into bucket start
// offsets.
func prefixSum(off []int) {
	for x := 1; x < len(off); x++ {
		off[x] += off[x-1]
	}
}

// unshift restores bucket starts after a fill that advanced off[x] to the
// start of bucket x+1.
func unshift(off []int) {
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
}

// Succ returns the successors of vertex x, ascending.
func (a *Adjacency) Succ(x rt.VertexID) []rt.VertexID {
	lo, hi := a.succOff[x], a.succOff[x+1]
	return a.succ[lo:hi:hi]
}

// Pred returns the predecessors of vertex x, ascending.
func (a *Adjacency) Pred(x rt.VertexID) []rt.VertexID {
	lo, hi := a.predOff[x], a.predOff[x+1]
	return a.pred[lo:hi:hi]
}
