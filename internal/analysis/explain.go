package analysis

import (
	"fmt"
	"strings"

	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
	"dpcpp/internal/rta"
)

// Breakdown decomposes the Theorem 1 bound of one task into the paper's
// delay categories, evaluated for the worst-case path at the response-time
// fixed point. It is diagnostic output: Total equals the WCRT bound the
// analyzer reports.
type Breakdown struct {
	TaskID rt.TaskID
	// PathLength is L(lambda) of the worst path (EN: L*).
	PathLength rt.Time
	// InterTaskBlocking is B_i (Lemma 3).
	InterTaskBlocking rt.Time
	// IntraTaskBlocking is b_i (Lemma 4).
	IntraTaskBlocking rt.Time
	// IntraInterference is I^intra_i (Lemma 5), before the 1/m_i division.
	IntraInterference rt.Time
	// AgentInterference is I^A_i (Lemma 6), before the 1/m_i division.
	AgentInterference rt.Time
	// SharedPreemption is the Sec. VI co-located higher-priority light
	// task interference (zero for heavy tasks).
	SharedPreemption rt.Time
	// Procs is m_i.
	Procs int64
	// Total is the resulting bound (Infinity when unschedulable).
	Total rt.Time
	// PathsConsidered counts the candidate path views evaluated: complete
	// paths collapse by per-resource request-vector signature before
	// evaluation, so this is the number of distinct signatures (1 for EN).
	PathsConsidered int
	// ENFallback reports that the path count exceeded the cap and the EN
	// bounds were used.
	ENFallback bool
}

// String renders the breakdown in one line per component.
func (b Breakdown) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "task %d (m_i=%d, %d paths", b.TaskID, b.Procs, b.PathsConsidered)
	if b.ENFallback {
		sb.WriteString(", EN fallback")
	}
	sb.WriteString(")\n")
	fmt.Fprintf(&sb, "  L(lambda)         %12s\n", rt.FormatTime(b.PathLength))
	fmt.Fprintf(&sb, "  inter-task B      %12s\n", rt.FormatTime(b.InterTaskBlocking))
	fmt.Fprintf(&sb, "  intra-task b      %12s\n", rt.FormatTime(b.IntraTaskBlocking))
	fmt.Fprintf(&sb, "  I_intra / m_i     %12s\n", rt.FormatTime(rt.CeilDiv(b.IntraInterference, max(b.Procs, 1))))
	fmt.Fprintf(&sb, "  I_agent / m_i     %12s\n", rt.FormatTime(rt.CeilDiv(b.AgentInterference, max(b.Procs, 1))))
	if b.SharedPreemption > 0 {
		fmt.Fprintf(&sb, "  hp-shared preempt %12s\n", rt.FormatTime(b.SharedPreemption))
	}
	fmt.Fprintf(&sb, "  total R           %12s\n", rt.FormatTime(b.Total))
	return sb.String()
}

// Explain analyzes every task under the partition and returns per-task
// breakdowns of the worst path, in descending priority order. It fills
// every view's epsilons, then iterates each view's fixed point over
// theorem1, the function taskWCRT iterates; the breakdown is theorem1's
// at that point, or at the deadline for a view that diverges.
func (a *DPCPp) Explain(p *partition.Partition) []Breakdown {
	wcrts := make(map[rt.TaskID]rt.Time, len(a.ts.Tasks))
	out := make([]Breakdown, 0, len(a.ts.Tasks))
	for _, t := range a.byPrio {
		ctx := a.buildCtx(p, t, wcrts)
		a.prepareViews(ctx, a.viewsFor(ctx))
		worst := Breakdown{TaskID: t.ID, Procs: ctx.mi, PathsConsidered: len(ctx.views),
			ENFallback: !ctx.shared && a.sc.viewCache[t.ID].fallback}
		for vi := range ctx.views {
			a.fillEps(ctx, vi)
			r, ok := rta.FixPoint(ctx.xs[vi], t.Deadline, func(r rt.Time) rt.Time {
				return ctx.theorem1(vi, r).total
			})
			at := r
			if !ok {
				r, at = rt.Infinity, t.Deadline
			}
			if vi > 0 && r <= worst.Total {
				continue
			}
			f := ctx.theorem1(vi, at)
			v, vt := &ctx.views[vi], &ctx.terms[vi]
			worst.PathLength = v.length
			worst.InterTaskBlocking = f.blocking
			worst.IntraTaskBlocking = vt.b
			worst.IntraInterference = vt.iIntra
			worst.AgentInterference = f.agent
			worst.SharedPreemption = f.shared
			worst.Total = r
		}
		wcrts[t.ID] = worst.Total
		out = append(out, worst)
	}
	return out
}
