// Package sim is a deterministic discrete-event simulator of the DPCP-p
// runtime (Sec. III): federated clusters with work-conserving vertex
// scheduling, per-task ready/suspended queues (RQN, RQL, SQ), per-processor
// agent queues (RQG, SQG), the priority-ceiling grant rule, and remote
// execution of global-resource requests by agents that outrank every normal
// vertex. It doubles as a validation harness: built-in invariant checkers
// verify mutual exclusion, the ceiling grant rule, precedence constraints,
// work conservation, and Lemma 1 (at most one lower-priority blocking per
// request) on every schedule it produces.
package sim

import (
	"fmt"

	"dpcpp/internal/model"
	"dpcpp/internal/rt"
)

// NoResource marks a non-critical segment.
const NoResource rt.ResourceID = -1

// Segment is one contiguous piece of a vertex's execution: either
// non-critical work or one critical section on Res.
type Segment struct {
	Res rt.ResourceID
	Dur rt.Time
}

// IsCS reports whether the segment is a critical section.
func (s Segment) IsCS() bool { return s.Res != NoResource }

// CSPlacement controls where a vertex's critical sections sit within its
// WCET; the analysis is placement-oblivious, so the simulator exposes the
// choice to let tests exercise different interleavings.
type CSPlacement int

const (
	// SpreadCS interleaves critical sections evenly with non-critical
	// chunks (the default).
	SpreadCS CSPlacement = iota
	// FrontCS issues every request at the very start of the vertex,
	// matching the paper's Fig. 1 schedule where v_{i,2} suspends
	// immediately.
	FrontCS
	// BackCS issues every request at the very end of the vertex.
	BackCS
)

// BuildSegments derives the deterministic segment list of a vertex:
// requests are ordered by ascending resource ID and the non-critical WCET
// is split around them according to the placement.
func BuildSegments(t *model.Task, x rt.VertexID, placement CSPlacement) []Segment {
	v := t.Vertices[x]
	var reqs []rt.ResourceID
	for _, r := range v.Requests { // sorted by resource
		for i := 0; i < r.Count; i++ {
			reqs = append(reqs, r.Resource)
		}
	}
	nonCrit := t.VertexNonCrit(x)

	var segs []Segment
	addNC := func(d rt.Time) {
		if d > 0 {
			segs = append(segs, Segment{Res: NoResource, Dur: d})
		}
	}
	switch placement {
	case FrontCS:
		for _, q := range reqs {
			segs = append(segs, Segment{Res: q, Dur: t.CS(q)})
		}
		addNC(nonCrit)
	case BackCS:
		addNC(nonCrit)
		for _, q := range reqs {
			segs = append(segs, Segment{Res: q, Dur: t.CS(q)})
		}
	default: // SpreadCS
		chunks := len(reqs) + 1
		base := nonCrit / rt.Time(chunks)
		rem := nonCrit - base*rt.Time(chunks)
		addNC(base + rem)
		for _, q := range reqs {
			segs = append(segs, Segment{Res: q, Dur: t.CS(q)})
			addNC(base)
		}
	}
	if len(segs) == 0 {
		// A vertex always has positive WCET, so this only happens when the
		// entire WCET is critical; keep a zero-guard anyway.
		segs = append(segs, Segment{Res: NoResource, Dur: v.WCET})
	}
	return segs
}

// TotalDuration sums the segment durations (equals the vertex WCET).
func TotalDuration(segs []Segment) rt.Time {
	var d rt.Time
	for _, s := range segs {
		d += s.Dur
	}
	return d
}

func (s Segment) String() string {
	if s.IsCS() {
		return fmt.Sprintf("CS(l%d,%s)", s.Res, rt.FormatTime(s.Dur))
	}
	return fmt.Sprintf("NC(%s)", rt.FormatTime(s.Dur))
}
