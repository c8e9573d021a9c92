package model

import (
	"dpcpp/internal/rt"
)

// PathView is the signature-collapsed summary of every complete path that
// shares one per-resource request vector ("signature"). The DPCP-p per-path
// response-time bound of Theorem 1 depends on a path only through its
// request vector, its length L(lambda) and its on-path non-critical WCET,
// and it is monotone non-decreasing in the latter two for a fixed request
// vector (L and C' are coupled: L = C'(lambda) + sum_q N^lambda_q * L_q).
// All paths with one signature therefore collapse, exactly, into the single
// view carrying the group maxima.
type PathView struct {
	NReq    []int64 // NReq[q] = N^lambda_{i,q}, shared by all collapsed paths
	Length  rt.Time // max over collapsed paths of L(lambda)
	NonCrit rt.Time // on-path non-critical WCET of the longest collapsed path
}

// viewState is one partial-path equivalence class during the collapse DP:
// all head-to-x prefixes sharing one request-count signature.
type viewState struct {
	sig     []int64 // counts per *active* resource (see EnumerateViews)
	nonCrit rt.Time // max prefix non-critical WCET within the class
}

// sigDelta is one vertex's request increment on an active-resource slot,
// hoisted out of the DP so the inner loop never touches the request
// profiles.
type sigDelta struct {
	slot int
	n    int64
}

// ViewScratch holds the reusable working memory of EnumerateViews: the
// per-vertex DP state, the signature arena, the merger (including its map
// index and key buffer) and the backing arrays of the returned views.
//
// Ownership: a ViewScratch may be used by one goroutine at a time, and the
// views EnumerateViews returns through it (including their NReq vectors)
// borrow the scratch — they are valid only until the next EnumerateViews
// call on the same scratch. Callers that retain views must copy them out
// first (internal/analysis does: it copies each view's NReq into its own
// arena immediately).
type ViewScratch struct {
	active  []rt.ResourceID
	slot    []int
	deltas  [][]sigDelta
	nonCrit []rt.Time
	states  [][]viewState
	final   []viewState
	zeroSig []int64

	// sigs is the arena backing every signature copied during one call;
	// sigOff is the bump pointer, reset per call. Growth allocates a fresh
	// backing array (chunks already handed out keep the old one alive), so
	// after warm-up a steady-state call performs no signature allocations.
	sigs   []int64
	sigOff int

	merger sigMerger

	views []PathView
	nreq  []int64
}

// allocSig bump-allocates one zero-length-capped signature of length n from
// the arena. The full slice expression prevents a later append from
// clobbering a neighboring chunk.
//
//schedlint:hotpath
func (s *ViewScratch) allocSig(n int) []int64 {
	if s.sigOff+n > len(s.sigs) {
		size := 2 * (s.sigOff + n)
		if size < 64 {
			size = 64
		}
		//schedlint:ignore hotpath amortized signature-arena growth; steady-state calls reuse the existing backing
		s.sigs = make([]int64, size)
		s.sigOff = 0
	}
	c := s.sigs[s.sigOff : s.sigOff+n : s.sigOff+n]
	s.sigOff += n
	return c
}

// sliceCap returns s with length n, reusing the backing array when it is
// large enough. Contents are unspecified; callers fully overwrite.
func sliceCap[T any](s []T, n int) []T {
	if cap(s) < n {
		//schedlint:ignore hotpath grow-only resize; a warmed scratch never re-enters this branch
		return make([]T, n)
	}
	return s[:n]
}

// EnumerateViews streams every complete path of the DAG through a
// signature-collapsing dynamic program and returns one PathView per
// distinct request vector, in deterministic first-discovered order.
//
// Unlike EnumeratePaths, the cost is not proportional to the number of
// paths: partial paths reaching a vertex with identical request counts are
// folded immediately, so a DAG whose 2^k paths all request the same
// resources is processed in O(V+E). The worst case is bounded by the number
// of distinct partial signatures per vertex (itself bounded by the path
// count and by prod_q (N_{i,q}+1)).
//
// The cap keeps the EN-fallback semantics of EnumeratePaths bit-compatible:
// ok=false whenever the task has more than cap complete paths, regardless
// of how few views they would collapse into. A cap <= 0 means unlimited.
//
// With a nil scratch the returned views own fresh memory. With a non-nil
// scratch the views (and their NReq backing) borrow it and stay valid only
// until the next call on the same scratch. The fold order, merge order and
// therefore the returned view order are identical either way.
//
//schedlint:hotpath
func (t *Task) EnumerateViews(cap int, s *ViewScratch) (views []PathView, ok bool) {
	t.mustFinal()
	if cap > 0 && t.CountPaths() > int64(cap) {
		return nil, false
	}
	if s == nil {
		s = &ViewScratch{}
	}

	// Active resources: only resources the task requests at all can appear
	// in a signature, so signatures index them densely.
	s.active = s.active[:0]
	s.slot = sliceCap(s.slot, len(t.nReq))
	for q, n := range t.nReq {
		if n > 0 {
			s.slot[q] = len(s.active)
			s.active = append(s.active, rt.ResourceID(q))
		}
	}
	na := len(s.active)

	// Per-vertex signature increments and non-critical WCETs.
	nv := len(t.Vertices)
	if have := len(s.deltas); have < nv {
		//schedlint:ignore hotpath grow-only resize; a warmed scratch never re-enters this branch
		s.deltas = append(s.deltas[:have], make([][]sigDelta, nv-have)...)
	}
	s.nonCrit = sliceCap(s.nonCrit, nv)
	for x, v := range t.Vertices {
		s.nonCrit[x] = t.VertexNonCrit(rt.VertexID(x))
		d := s.deltas[x][:0]
		for _, r := range v.Requests {
			if r.Count > 0 {
				d = append(d, sigDelta{slot: s.slot[r.Resource], n: int64(r.Count)})
			}
		}
		s.deltas[x] = d
	}

	s.zeroSig = sliceCap(s.zeroSig, na)
	clear(s.zeroSig)
	s.sigOff = 0
	m := &s.merger

	// Forward DP in topological order: states[x] holds the collapsed
	// classes of all head-to-x prefixes (x included). The predecessor
	// signature is never mutated and is shared when x issues no requests.
	if have := len(s.states); have < nv {
		//schedlint:ignore hotpath grow-only resize; a warmed scratch never re-enters this branch
		s.states = append(s.states[:have], make([][]viewState, nv-have)...)
	}
	for _, x := range t.topo {
		m.begin(s.states[x][:0])
		if pred := t.adj.Pred(x); len(pred) == 0 {
			s.fold(m, x, na, s.zeroSig, s.nonCrit[x])
		} else {
			for _, p := range pred {
				for _, st := range s.states[p] {
					s.fold(m, x, na, st.sig, st.nonCrit+s.nonCrit[x])
				}
			}
		}
		s.states[x] = m.take()
	}

	// Merge the tail classes into the final views. Length is recovered from
	// the signature: L = C'(lambda) + sum over active q of sig_q * L_{i,q}.
	m.begin(s.final[:0])
	for _, tail := range t.tails {
		for _, st := range s.states[tail] {
			m.add(st.sig, st.nonCrit)
		}
	}
	s.final = m.take()
	final := s.final

	nr := len(t.nReq)
	views = sliceCap(s.views, len(final))
	s.views = views
	s.nreq = sliceCap(s.nreq, len(final)*nr)
	nreqFlat := s.nreq
	clear(nreqFlat)
	for i, st := range final {
		nreq := nreqFlat[i*nr : (i+1)*nr : (i+1)*nr]
		length := st.nonCrit
		for j, q := range s.active {
			nreq[q] = st.sig[j]
			length = rt.SatAdd(length, rt.SatMul(st.sig[j], t.CSLen[q]))
		}
		views[i] = PathView{NReq: nreq, Length: length, NonCrit: st.nonCrit}
	}
	return views, true
}

// fold extends one predecessor class by vertex x and hands it to the
// merger. Signatures only copy (from the arena) when x issues requests.
func (s *ViewScratch) fold(m *sigMerger, x rt.VertexID, na int, base []int64, nc rt.Time) {
	sig := base
	if len(s.deltas[x]) > 0 {
		sig = s.allocSig(na)
		copy(sig, base)
		for _, d := range s.deltas[x] {
			sig[d.slot] += d.n
		}
	}
	m.add(sig, nc)
}

// sigMerger folds (signature, nonCrit) pairs into collapsed
// equivalence classes. Small batches merge by direct signature comparison;
// once the class count passes a threshold it switches to an open-addressed
// hash table probing the signatures in place, so chain-heavy DAGs (few
// classes per vertex) never pay for hashing while contention-heavy DAGs
// stay near O(1) per fold. The table's backing persists across begin
// calls, so a scratch-driven enumeration reuses it allocation-free (a
// string-keyed map here would re-materialize every key string per call:
// map writes always copy the key).
type sigMerger struct {
	out []viewState
	// table is the open-addressed index: table[j] holds 1+the out index of
	// the class hashed to slot j, 0 marks an empty slot. Linear probing;
	// capacity is a power of two kept at least twice the class count.
	table   []int32
	indexed bool // table is live for the current merge
}

// linearMergeMax bounds the direct-comparison phase; beyond it the merger
// builds its table index.
const linearMergeMax = 16

// begin starts a new merge writing into dst (typically a reused slice
// truncated to length zero).
func (m *sigMerger) begin(dst []viewState) {
	m.out = dst
	m.indexed = false
}

// take returns the merged classes and detaches them from the merger.
func (m *sigMerger) take() []viewState {
	out := m.out
	m.out = nil
	m.indexed = false
	return out
}

// hashSig mixes the signature contents; only equality of signatures (not
// any encoding) matters for correctness.
func hashSig(sig []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, n := range sig {
		x := uint64(n)
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		h = (h ^ x) * 0x9e3779b97f4a7c15
	}
	h ^= h >> 29
	return h
}

// find probes for sig and returns the slot holding its class, or the empty
// slot where it belongs.
func (m *sigMerger) find(sig []int64) int {
	mask := len(m.table) - 1
	j := int(hashSig(sig)) & mask
	for {
		e := m.table[j]
		if e == 0 || sigEqual(m.out[e-1].sig, sig) {
			return j
		}
		j = (j + 1) & mask
	}
}

// reindex (re)builds the table over the current classes, growing the
// backing only when the class count outruns the 1/2 load factor.
func (m *sigMerger) reindex() {
	need := 4 * linearMergeMax
	for need < 4*(len(m.out)+1) {
		need *= 2
	}
	if len(m.table) < need {
		//schedlint:ignore hotpath grow-only resize; a warmed merger table never re-enters this branch
		m.table = make([]int32, need)
	} else {
		clear(m.table)
	}
	m.indexed = true
	for i := range m.out {
		m.table[m.find(m.out[i].sig)] = int32(i + 1)
	}
}

// add folds one (signature, nonCrit) pair into its class, appending a new
// class when the signature is unseen.
func (m *sigMerger) add(sig []int64, nonCrit rt.Time) {
	if !m.indexed {
		for i := range m.out {
			if sigEqual(m.out[i].sig, sig) {
				m.merge(i, nonCrit)
				return
			}
		}
		if len(m.out) < linearMergeMax {
			m.out = append(m.out, viewState{sig: sig, nonCrit: nonCrit})
			return
		}
		// Crossing the threshold: index everything seen so far.
		m.reindex()
	}
	if 2*(len(m.out)+1) > len(m.table) {
		m.reindex()
	}
	j := m.find(sig)
	if e := m.table[j]; e != 0 {
		m.merge(int(e-1), nonCrit)
		return
	}
	m.table[j] = int32(len(m.out) + 1)
	m.out = append(m.out, viewState{sig: sig, nonCrit: nonCrit})
}

func (m *sigMerger) merge(i int, nonCrit rt.Time) {
	m.out[i].nonCrit = max(m.out[i].nonCrit, nonCrit)
}

func sigEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
