package model

import (
	"math"

	"dpcpp/internal/rt"
)

// Path is one complete path lambda_i through a task's DAG: a head-to-tail
// sequence of vertices, together with the derived quantities the response
// time analysis consumes.
type Path struct {
	Vertices []rt.VertexID
	Length   rt.Time // L(lambda), sum of vertex WCETs on the path
	NonCrit  rt.Time // C'(lambda), sum of non-critical WCETs on the path
	NReq     []int64 // NReq[q] = N^lambda_{i,q}, requests issued on the path
	onPath   []bool
}

// Contains reports whether vertex x lies on the path.
func (p *Path) Contains(x rt.VertexID) bool { return p.onPath[x] }

// Requests returns N^lambda_{i,q} for resource q.
func (p *Path) Requests(q rt.ResourceID) int64 {
	if int(q) >= len(p.NReq) {
		return 0
	}
	return p.NReq[q]
}

// CountPaths returns the number of complete paths in the DAG, saturating at
// math.MaxInt64. It runs in O(V+E) by dynamic programming over the
// topological order.
func (t *Task) CountPaths() int64 {
	t.mustFinal()
	//schedlint:ignore hotpath cap pre-check runs once per task; the analyzer caches the resulting views
	count := make([]int64, len(t.Vertices))
	total := int64(0)
	// Iterate in reverse topological order: count[x] = paths from x to a tail.
	for i := len(t.topo) - 1; i >= 0; i-- {
		x := t.topo[i]
		succ := t.adj.Succ(x)
		if len(succ) == 0 {
			count[x] = 1
			continue
		}
		var c int64
		for _, y := range succ {
			c = satAddI64(c, count[y])
		}
		count[x] = c
	}
	for _, h := range t.heads {
		total = satAddI64(total, count[h])
	}
	return total
}

func satAddI64(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// EnumeratePaths yields every complete path of the DAG, up to the given cap.
// It returns the collected paths and ok=false when the cap was exceeded (in
// which case the returned slice is nil and callers should fall back to the
// path-oblivious EN bounds). A cap <= 0 means unlimited.
//
// The response-time analysis no longer consumes concrete paths; it uses the
// signature-collapsed views of EnumerateViews. EnumeratePaths remains the
// reference enumeration for tests and diagnostic tooling.
func (t *Task) EnumeratePaths(cap int) (paths []*Path, ok bool) {
	t.mustFinal()
	if cap > 0 && t.CountPaths() > int64(cap) {
		return nil, false
	}
	nr := len(t.nReq)
	t.visitPaths(func(stack []rt.VertexID) {
		paths = append(paths, t.makePath(stack, nr))
	})
	return paths, true
}

// visitPaths walks every complete head-to-tail path with an explicit frame
// stack (no recursion, so arbitrarily deep chain DAGs cannot grow the
// goroutine stack). The vertex slice passed to visit is reused between
// calls; callers must copy it if they retain it.
func (t *Task) visitPaths(visit func(vertices []rt.VertexID)) {
	type frame struct {
		x    rt.VertexID
		next int // index of the next successor to descend into
	}
	frames := make([]frame, 0, len(t.Vertices))
	stack := make([]rt.VertexID, 0, len(t.Vertices))
	for _, h := range t.heads {
		frames = append(frames[:0], frame{x: h})
		stack = append(stack[:0], h)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			succ := t.adj.Succ(f.x)
			if len(succ) == 0 {
				visit(stack)
			}
			if f.next < len(succ) {
				y := succ[f.next]
				f.next++
				frames = append(frames, frame{x: y})
				stack = append(stack, y)
				continue
			}
			frames = frames[:len(frames)-1]
			stack = stack[:len(stack)-1]
		}
	}
}

func (t *Task) makePath(vertices []rt.VertexID, nr int) *Path {
	p := &Path{
		Vertices: append([]rt.VertexID(nil), vertices...),
		NReq:     make([]int64, nr),
		onPath:   make([]bool, len(t.Vertices)),
	}
	for _, x := range vertices {
		v := t.Vertices[x]
		p.Length += v.WCET
		p.NonCrit += t.VertexNonCrit(x)
		p.onPath[x] = true
		for _, r := range v.Requests {
			p.NReq[r.Resource] += int64(r.Count)
		}
	}
	return p
}

// PathBounds holds, for one task, the extreme values over all complete
// paths of every path-dependent quantity used by the EN analysis and the
// SPIN-SON and LPP baselines. The EN analysis treats the worst-case path as
// unknown and substitutes, per term, the extreme in the pessimistic
// direction — a sound relaxation of enumerating the per-resource request
// counts as in the paper's DPCP-p-EN baseline.
type PathBounds struct {
	MaxLength  rt.Time // L*_i
	MinLength  rt.Time // min over paths of L(lambda)
	MinNonCrit rt.Time // min over paths of C'(lambda)
	MinReq     []int64 // per resource: min over paths of N^lambda_{i,q}
	MaxReq     []int64 // per resource: max over paths of N^lambda_{i,q}
}

// PathBounds returns the task's path bounds, computed once by Finalize.
// The result is shared and must not be modified.
func (t *Task) PathBounds() *PathBounds { t.mustFinal(); return &t.bounds }

// ComputePathBounds computes PathBounds afresh, without consulting the
// bounds Finalize stored; PathBounds is the cached accessor.
func (t *Task) ComputePathBounds() PathBounds {
	t.mustFinal()
	return t.computePathBounds()
}

// computePathBounds computes PathBounds in O((V+E) * (3+2u)) for the u
// resources the task uses, in one reverse-topological pass and without
// enumerating paths. Each vertex carries one state row
//
//	[minLen, minNonCrit, minReq[0..u), maxReq[0..u), maxLen]
//
// seeded with the vertex's own weights; the pass then adds, column by
// column, the min (first 2+u columns) or max (the rest) over its
// successors' finished rows, so row x ends up holding the extremes over
// all paths from x to a tail. maxLen is L*_i, which adds with saturation
// so that absurd decoded WCETs cannot wrap it negative. The pass reads the
// topological order, successor lists, heads and request totals, and makes
// exactly two allocations: the result slab holding MinReq and MaxReq, and
// the rows.
func (t *Task) computePathBounds() PathBounds {
	nr := len(t.nReq)
	slab := make([]int64, 2*nr)
	b := PathBounds{MinReq: slab[:nr:nr], MaxReq: slab[nr:]}

	// Until the results are written, MaxReq[q] holds 1 + the state column
	// of used resource q, and 0 for an unused one.
	col := b.MaxReq
	u := 0
	for q, n := range t.nReq {
		if n > 0 {
			u++
			col[q] = int64(u)
		}
	}
	w, mid := 3+2*u, 2+u
	rows := make([]int64, len(t.Vertices)*w)
	for x, v := range t.Vertices {
		r := rows[x*w : (x+1)*w]
		r[0], r[1], r[w-1] = v.WCET, v.WCET, v.WCET
		for _, rq := range v.Requests {
			q, c := rq.Resource, int64(rq.Count)
			r[1] -= rt.SatMul(c, t.CSLen[q])
			if k := int(col[q]) - 1; k >= 0 {
				r[2+k] += c
				r[mid+k] += c
			}
		}
	}

	for i := len(t.topo) - 1; i >= 0; i-- {
		x := int(t.topo[i])
		succ := t.adj.Succ(rt.VertexID(x))
		if len(succ) == 0 {
			continue
		}
		r := rows[x*w : (x+1)*w]
		first := int(succ[0]) * w
		for j := 0; j < mid; j++ {
			opt := rows[first+j]
			for _, y := range succ[1:] {
				opt = min(opt, rows[int(y)*w+j])
			}
			r[j] += opt
		}
		for j := mid; j < w; j++ {
			opt := rows[first+j]
			for _, y := range succ[1:] {
				opt = max(opt, rows[int(y)*w+j])
			}
			if j < w-1 {
				r[j] += opt
			} else {
				r[j] = rt.SatAdd(r[j], opt)
			}
		}
	}

	// Fold the heads' rows into the first head's, which is no longer read.
	best := rows[int(t.heads[0])*w : (int(t.heads[0])+1)*w]
	for _, h := range t.heads[1:] {
		r := rows[int(h)*w : (int(h)+1)*w]
		for j := 0; j < mid; j++ {
			best[j] = min(best[j], r[j])
		}
		for j := mid; j < w; j++ {
			best[j] = max(best[j], r[j])
		}
	}
	b.MinLength, b.MinNonCrit, b.MaxLength = best[0], best[1], best[w-1]
	for q := range col {
		if k := int(col[q]) - 1; k >= 0 {
			b.MinReq[q], b.MaxReq[q] = best[2+k], best[mid+k]
		}
	}
	return b
}
