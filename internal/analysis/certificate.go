package analysis

import (
	"fmt"

	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
)

// Certify checks claimed WCRTs on a partition without iterating any fixed
// point: in priority order, each task with a finite claimed R must have
// R <= D and a Theorem 1 right-hand side of at most R at R on every view.
// The recurrence is monotone, so a view's least fixed point is then at
// most R, and R is a sound bound. This is the predicate rta.MaxFixPoint
// admits views with; Certify fills every view's epsilons itself, in view
// order, rather than in the order taskWCRT first evaluated them. Eta terms
// read the claimed bounds of the tasks above, exactly as WCRTs reads the
// ones it computed.
// The check stops at the first task with no claimed bound: a pass that
// stopped at a miss computed nothing below it. It returns how many bounds
// it certified.
func (a *DPCPp) Certify(p *partition.Partition, claimed map[rt.TaskID]rt.Time) (int, error) {
	n := 0
	known := make(map[rt.TaskID]rt.Time, len(claimed))
	for _, t := range a.byPrio {
		r, ok := claimed[t.ID]
		if !ok {
			break
		}
		if r < rt.Infinity {
			if r > t.Deadline {
				return n, fmt.Errorf("task %d: R = %d exceeds D = %d", t.ID, r, t.Deadline)
			}
			ctx := a.buildCtx(p, t, known)
			a.prepareViews(ctx, a.viewsFor(ctx))
			for vi := range ctx.views {
				a.fillEps(ctx, vi)
				if f := ctx.theorem1(vi, r).total; f > r {
					return n, fmt.Errorf("task %d view %d: f(R) = %d > R = %d", t.ID, vi, f, r)
				}
			}
			n++
		}
		known[t.ID] = r
	}
	return n, nil
}
