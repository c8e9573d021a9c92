package analysis

import (
	"time"

	"dpcpp/internal/model"
	"dpcpp/internal/rt"
)

// Stage identifies one timed phase of the Theorem 1 pipeline for the
// optional per-stage instrumentation (see StageRecorder).
type Stage uint8

const (
	// StageViews is per-task path-view construction: EnumerateViews (EP)
	// or the single EN view built from the task's stored path bounds,
	// timed only on view-cache misses.
	StageViews Stage = iota
	// StageFixPoint is the response-time fixed-point step of one task's
	// view set: the view admission of rta.MaxFixPoint inside taskWCRT.
	StageFixPoint
	// StageRound is one full WCRTs pass over the taskset — one round of
	// the partitioning loop.
	StageRound
	// NumStages sizes recorder arrays.
	NumStages
)

// String returns the stage's metric-label name.
func (s Stage) String() string {
	switch s {
	case StageViews:
		return "views"
	case StageFixPoint:
		return "fixpoint"
	case StageRound:
		return "round"
	default:
		return "unknown"
	}
}

// StageRecorder receives per-stage analysis durations. Implementations
// must be allocation-free and safe for use from whichever single goroutine
// owns the Scratch (the server feeds lock-free histograms, which are
// additionally safe across goroutines). Both arguments are word-sized, so
// calls never box; with no recorder installed the hooks cost a nil check.
// The zero-alloc gates (TestWCRTsZeroAllocEN/EP) run with a recorder
// installed, pinning that instrumentation stays free on the hot path.
type StageRecorder interface {
	RecordStage(s Stage, d time.Duration)
}

// arena is a typed bump allocator over a reusable backing array. alloc
// hands out full-slice-capped chunks so a later append on one chunk can
// never clobber its neighbor. reset rewinds the bump pointer without
// touching contents — chunks are recycled with whatever stale values they
// held, so every caller must fully overwrite its chunk (or use the [:0]
// append idiom within the chunk's capacity).
//
// Growth allocates a fresh backing array; chunks already handed out keep
// the previous array alive, so mid-cycle growth is safe. Because the new
// size is at least double the old, a workload with bounded per-cycle demand
// reaches a steady state where alloc never allocates.
type arena[T any] struct {
	buf []T
	off int
}

//schedlint:hotpath
func (a *arena[T]) reset() { a.off = 0 }

//schedlint:hotpath
func (a *arena[T]) alloc(n int) []T {
	if a.off+n > len(a.buf) {
		size := 2 * (a.off + n)
		if size < 64 {
			size = 64
		}
		//schedlint:ignore hotpath amortized arena growth; steady-state calls reuse the existing backing
		a.buf = make([]T, size)
		a.off = 0
	}
	c := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	return c
}

// allocZero is alloc with the chunk cleared, for callers that rely on
// zero-valued entries they do not explicitly write.
//
//schedlint:hotpath
func (a *arena[T]) allocZero(n int) []T {
	c := a.alloc(n)
	clear(c)
	return c
}

// Scratch is the reusable working memory of the DPCP-p analyses. A single
// Scratch, recycled across TestWith calls, drives the steady-state
// allocations of an EN or EP analysis round to zero: path views, their
// request vectors, per-task interference tables (eta terms, the per-task
// eta source lists and counts), each view's r-independent Theorem 1 terms,
// fixed-point start value and epsilon slots with their filled marks, the
// Lemma 2 epsilon table and the response-time map all live in
// scratch-owned arenas, tables and maps that are reset — never
// reallocated — between uses. A view's epsilons are computed into its
// slots only when Theorem 1 first evaluates it (see fillEps), so the
// epsilon table holds only the (proc, base) rows of the views a task's
// fixed point reached.
//
// Ownership rules:
//
//   - A Scratch may be used by one goroutine at a time. Concurrent workers
//     each own one (internal/experiments pools them per worker;
//     internal/server pools them via sync.Pool).
//   - newDPCPp resets the analyzer-lifetime region (view cache and view
//     arenas); buildCtx resets the per-task region. Nothing else resets.
//   - Everything a partition.Result carries out of an analysis (partition,
//     WCRT map, reason) is freshly allocated or copied, never
//     scratch-backed: callers may retain Results indefinitely and reuse the
//     Scratch immediately.
//   - Internal borrowers follow the narrower lifetime: path views stay
//     valid for one analyzer's lifetime (the view cache spans partition
//     rounds), per-task contexts for one task's round, and the WCRTs map
//     until the next WCRTs call on the same analyzer.
type Scratch struct {
	// Analyzer-lifetime state, reset by newDPCPp.

	// viewCache memoizes per-task path views across the repeated WCRTs
	// rounds of the partitioning loop: views depend only on the (immutable,
	// finalized) task, never on the candidate partition.
	viewCache map[rt.TaskID]cachedViews
	vs        model.ViewScratch
	pviews    arena[pathView]
	flat      arena[int64] // request-vector backing of cached EP views

	// WCRTs-lifetime state: the response-time map handed out by WCRTs,
	// valid until the next WCRTs call (internal/partition copies it into
	// every Result it returns).
	wcrts map[rt.TaskID]rt.Time

	// Per-task state, reset by buildCtx. eps is the (proc, base) epsilon
	// memo (see epsTable), filled as views are first evaluated; its reset
	// is a generation bump, not a clear.
	ctx        taskCtx
	terms      arena[etaTerm]
	times      arena[rt.Time] // also request counts and indices (rt.Time is int64)
	resIDs     arena[rt.ResourceID]
	vterms     arena[viewTerms]
	eps        epsTable
	sharedView [1]pathView

	// rec, when non-nil, receives per-stage pipeline timings. It survives
	// every reset: instrumentation is a property of the Scratch's owner
	// (a server engine, a pool worker), not of one analysis.
	rec StageRecorder
}

// SetStageRecorder installs (or removes, with nil) the per-stage timing
// recorder. Recording must be allocation-free; see StageRecorder.
func (s *Scratch) SetStageRecorder(r StageRecorder) { s.rec = r }

// stageStart opens a stage timing region; zero-cost (beyond a nil check)
// without a recorder.
//
//schedlint:hotpath
func (s *Scratch) stageStart() time.Time {
	if s.rec == nil {
		return time.Time{}
	}
	//schedlint:ignore determinism stage timing feeds the StageRecorder observability hook, never the analysis verdict
	return time.Now()
}

// stageEnd closes a region opened by stageStart.
//
//schedlint:hotpath
func (s *Scratch) stageEnd(st Stage, start time.Time) {
	if s.rec == nil {
		return
	}
	//schedlint:ignore determinism stage timing feeds the StageRecorder observability hook, never the analysis verdict
	s.rec.RecordStage(st, time.Since(start))
}

// NewScratch returns an empty Scratch ready for TestWith. The zero value is
// not usable; maps must be pre-built so resets can clear instead of
// reallocate.
func NewScratch() *Scratch {
	return &Scratch{
		viewCache: make(map[rt.TaskID]cachedViews),
		wcrts:     make(map[rt.TaskID]rt.Time),
	}
}

// analyzerReset recycles the analyzer-lifetime region for a fresh analyzer.
// Map buckets and arena backings survive, so an analyzer over a
// previously-seen taskset shape allocates nothing.
//
//schedlint:hotpath
func (s *Scratch) analyzerReset() {
	clear(s.viewCache)
	s.pviews.reset()
	s.flat.reset()
}

// taskReset recycles the per-task region at the top of buildCtx.
//
//schedlint:hotpath
func (s *Scratch) taskReset() {
	s.terms.reset()
	s.times.reset()
	s.resIDs.reset()
	s.vterms.reset()
	s.eps.reset()
}

// epsTable is the per-task Lemma 2 memo behind taskCtx.eps: an
// open-addressed, linearly probed hash table from (processor, base) to the
// per-request blocking bound. A slot is live only while its generation
// stamp equals the table's, so reset is O(1) — it bumps the generation
// instead of clearing the slots — and the slot array, sized by the largest
// task seen so far, is reused allocation-free across tasks and rounds.
//
// The zero value is an empty table.
type epsTable struct {
	slots []epsSlot // power-of-two length, at most half full
	gen   uint32    // stamp of live slots; never 0 once slots exist
	n     int       // live entries
}

type epsSlot struct {
	gen uint32
	key epsKey
	val rt.Time
}

// reset empties the table in O(1). On generation wrap-around the slots are
// cleared once, so no stale slot can carry the restarted stamp.
//
//schedlint:hotpath
func (m *epsTable) reset() {
	m.n = 0
	m.gen++
	if m.gen == 0 {
		clear(m.slots)
		m.gen = 1
	}
}

// home returns the first probe position of k: a Fibonacci-hashed mix of
// both key halves, taken from the product's high bits.
func (m *epsTable) home(k epsKey) int {
	h := (uint64(k.base) ^ uint64(k.proc)*0xbf58476d1ce4e5b9) * 0x9e3779b97f4a7c15
	return int(h>>32) & (len(m.slots) - 1)
}

// get returns the memoized value of k.
//
//schedlint:hotpath
func (m *epsTable) get(k epsKey) (rt.Time, bool) {
	if m.n == 0 {
		return 0, false
	}
	mask := len(m.slots) - 1
	for i := m.home(k); ; i = (i + 1) & mask {
		sl := &m.slots[i]
		if sl.gen != m.gen {
			return 0, false
		}
		if sl.key == k {
			return sl.val, true
		}
	}
}

// put sets k to v, inserting it if absent.
//
//schedlint:hotpath
func (m *epsTable) put(k epsKey, v rt.Time) {
	if 2*(m.n+1) > len(m.slots) {
		m.grow()
	}
	mask := len(m.slots) - 1
	for i := m.home(k); ; i = (i + 1) & mask {
		sl := &m.slots[i]
		if sl.gen != m.gen {
			*sl = epsSlot{gen: m.gen, key: k, val: v}
			m.n++
			return
		}
		if sl.key == k {
			sl.val = v
			return
		}
	}
}

// grow doubles the slot array (64 slots at first) and re-inserts the live
// entries; it may run in the middle of a task.
func (m *epsTable) grow() {
	old, oldGen := m.slots, m.gen
	size := 2 * len(old)
	if size < 64 {
		size = 64
	}
	//schedlint:ignore hotpath amortized memo growth to the largest task's row count; steady-state tasks reuse the slot array
	m.slots = make([]epsSlot, size)
	if m.gen == 0 {
		m.gen = 1
	}
	m.n = 0
	for i := range old {
		if sl := &old[i]; sl.gen == oldGen {
			m.put(sl.key, sl.val)
		}
	}
}
