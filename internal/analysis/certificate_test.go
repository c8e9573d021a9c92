package analysis

import (
	"fmt"
	"testing"

	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
)

// certify checks claimed WCRTs on a partition without iterating any fixed
// point: in priority order, each task with a finite claimed R must have
// R <= D and a Theorem 1 right-hand side of at most R at R on every view.
// The recurrence is monotone, so a view's least fixed point is then at
// most R, and R is a sound bound. Eta terms read the claimed bounds of the
// tasks above, exactly as WCRTs reads the ones it computed. The check stops
// at the first task with no claimed bound: a pass that stopped at a miss
// computed nothing below it. It returns how many bounds it certified.
func certify(a *DPCPp, p *partition.Partition, claimed map[rt.TaskID]rt.Time) (int, error) {
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
			views := a.viewsFor(ctx)
			terms, eps, _ := a.prepareViews(ctx, views)
			np := len(ctx.procs)
			for vi := range views {
				if f := ctx.theorem1(&views[vi], &terms[vi], eps[vi*np:(vi+1)*np], r).total; f > r {
					return n, fmt.Errorf("task %d view %d: f(R) = %d > R = %d", t.ID, vi, f, r)
				}
			}
			n++
		}
		known[t.ID] = r
	}
	return n, nil
}

// TestWCRTsAreCertified requires every finite WCRT the analysis claims to
// pass certify, the one-evaluation check that taskWCRT also runs to admit a
// view. It covers EP at the default path cap and at cap 2 (where EN
// fallbacks are common) and EN, over the equivalence corpus and the light
// set, which Algorithm1 packs, so the Sec. VI shared view is checked too.
func TestWCRTsAreCertified(t *testing.T) {
	corpus := append(equivalenceCorpus(t), lightSet(t))
	for _, cfg := range []struct {
		pathCap int
		en      bool
	}{{DefaultPathCap, false}, {2, false}, {DefaultPathCap, true}} {
		certified := 0
		for ci, ts := range corpus {
			res := partition.Algorithm1(ts, NewDPCPp(ts, cfg.pathCap, cfg.en), partition.WFD)
			if res.Partition == nil {
				continue
			}
			n, err := certify(NewDPCPp(ts, cfg.pathCap, cfg.en), res.Partition, res.WCRT)
			if err != nil {
				t.Errorf("cap %d en=%v corpus %d: %v", cfg.pathCap, cfg.en, ci, err)
			}
			certified += n
		}
		t.Logf("cap %d en=%v: %d WCRTs certified", cfg.pathCap, cfg.en, certified)
		if certified == 0 {
			t.Errorf("cap %d en=%v: no finite WCRT to certify", cfg.pathCap, cfg.en)
		}
	}
}
