package analysis

import (
	"slices"
	"testing"

	"dpcpp/internal/model"
	"dpcpp/internal/partition"
	"dpcpp/internal/rt"
)

// TestNoEpsilonWhenStartExceedsDeadline: task 1 runs two parallel 60us
// vertices on one processor with D = 100us, so each view's start value
// L + ceil(I^intra / m_i) = 120us already exceeds D. rta.MaxFixPoint then
// evaluates no view, and taskWCRT must return rt.Infinity without
// computing a single Lemma 2 epsilon, although the path requests from the
// resource's processor.
func TestNoEpsilonWhenStartExceedsDeadline(t *testing.T) {
	ts := model.NewTaskset(3, 1)
	hi := model.NewTask(0, 50*rt.Microsecond, 50*rt.Microsecond)
	hi.AddRequest(hi.AddVertex(10*rt.Microsecond), 0, 1, 2*rt.Microsecond)
	ts.Add(hi)
	lo := model.NewTask(1, 100*rt.Microsecond, 100*rt.Microsecond)
	lo.AddRequest(lo.AddVertex(60*rt.Microsecond), 0, 1, 2*rt.Microsecond)
	lo.AddVertex(60 * rt.Microsecond)
	ts.Add(lo)
	if err := ts.Finalize(); err != nil {
		t.Fatal(err)
	}
	p := partition.New(ts)
	p.Assign(0, 0)
	p.Assign(1, 1)
	p.PlaceResource(0, 2)

	a := NewDPCPp(ts, DefaultPathCap, false)
	if r := a.taskWCRT(p, ts.Task(1), map[rt.TaskID]rt.Time{}); r != rt.Infinity {
		t.Fatalf("R = %s, want Infinity", rt.FormatTime(r))
	}
	ctx := &a.sc.ctx
	if slices.Max(ctx.xs) <= ts.Task(1).Deadline {
		t.Fatalf("largest start value %s does not exceed D; the fixture is wrong", rt.FormatTime(slices.Max(ctx.xs)))
	}
	if a.sc.eps.n != 0 || slices.Contains(ctx.filled, 1) {
		t.Errorf("epsilon memo holds %d entries (filled %v) after no view was evaluated", a.sc.eps.n, ctx.filled)
	}
	// Filling a view must reach the memo, or the check above shows nothing.
	a.fillEps(ctx, 0)
	if a.sc.eps.n == 0 {
		t.Error("filling a requesting view computed no epsilon")
	}
}

// fillChecker is the production analyzer with a check after each
// taskWCRT call: every view taskWCRT evaluated holds exactly the epsilons
// a fresh fillEps computes for it in a fresh context, and every other view
// still holds prepareViews' raw slots.
type fillChecker struct {
	t                  *testing.T
	a, fresh           *DPCPp
	evaluated, skipped int
}

func (c *fillChecker) WCRTs(p *partition.Partition, untilMiss bool) map[rt.TaskID]rt.Time {
	wcrts := make(map[rt.TaskID]rt.Time, len(c.a.ts.Tasks))
	for _, task := range c.a.byPrio {
		r := c.a.taskWCRT(p, task, wcrts)
		got := &c.a.sc.ctx
		want := c.fresh.buildCtx(p, task, wcrts)
		c.fresh.prepareViews(want, c.fresh.viewsFor(want))
		for vi := range got.views {
			if got.filled[vi] != 0 {
				c.evaluated++
				c.fresh.fillEps(want, vi)
			} else {
				c.skipped++
			}
			if g, w := got.viewEps(vi), want.viewEps(vi); !slices.Equal(g, w) {
				c.t.Errorf("task %d view %d (filled %d): epsilon slots %v, fresh %v",
					task.ID, vi, got.filled[vi], g, w)
			}
		}
		wcrts[task.ID] = r
		if untilMiss && r > task.Deadline {
			break
		}
	}
	return wcrts
}

// TestFilledEpsilonsMatchFreshFill runs the partitioning loop over the
// equivalence corpus through fillChecker, for EP and EN. The loop's
// untilMiss rounds stop at diverging views, so some views must be left
// unfilled, or the laziness is not exercised.
func TestFilledEpsilonsMatchFreshFill(t *testing.T) {
	evaluated, skipped := 0, 0
	for _, en := range []bool{false, true} {
		for _, ts := range equivalenceCorpus(t) {
			c := &fillChecker{t: t, a: NewDPCPp(ts, DefaultPathCap, en), fresh: NewDPCPp(ts, DefaultPathCap, en)}
			partition.Algorithm1(ts, c, partition.WFD)
			evaluated += c.evaluated
			skipped += c.skipped
		}
	}
	t.Logf("%d views evaluated, %d never evaluated", evaluated, skipped)
	if evaluated == 0 || skipped == 0 {
		t.Errorf("%d views evaluated, %d skipped: the corpus does not exercise lazy filling", evaluated, skipped)
	}
}
