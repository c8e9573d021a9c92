package rta

import "dpcpp/internal/rt"

// FixPointBatch computes the least fixed points of len(xs) independent
// monotone recurrences in lockstep: each wave advances every unconverged
// recurrence by one step x_i <- step(i, x_i). Iterating a task's path views
// together keeps the shared interference tables (eta terms, epsilon values)
// cache-resident across the whole batch instead of streaming them once per
// view.
//
// xs[i] holds the i-th start value on entry and its fixed point on a true
// return. done is caller-provided scratch with len(done) >= len(xs);
// FixPointBatch resets it. Per recurrence the iterate sequence is exactly
// FixPoint's, so the computed fixed points are bit-identical; the batch
// returns false as soon as any recurrence exceeds limit, steps
// non-monotonically (a caller bug — see FixPoint), or outlives
// MaxIterations. Callers treat a false return exactly like a single
// diverged FixPoint: one diverged view makes the task unschedulable, so no
// per-view results are needed.
//
// Warm starts: because each step function is monotone, iterating from ANY
// start value at or below the least fixed point converges to exactly that
// least fixed point — usually in far fewer waves. A caller may seed xs[i]
// with any known lower bound on the least fixed point, and it owns that
// bound: a seed ABOVE the least fixed point is silently absorbed into a
// larger fixed point of the same recurrence (see
// TestFixPointBatchWarmStart's overshoot example), so FixPointBatch cannot
// detect it — never seed from state whose inputs may have shrunk.
//
//schedlint:hotpath
func FixPointBatch(xs []rt.Time, limit rt.Time, done []bool, step func(i int, x rt.Time) rt.Time) bool {
	done = done[:len(xs)]
	for i := range done {
		done[i] = false
	}
	remaining := len(xs)
	for iter := 0; iter < MaxIterations && remaining > 0; iter++ {
		for i, x := range xs {
			if done[i] {
				continue
			}
			if x > limit {
				return false
			}
			next := step(i, x)
			if next < x {
				return false
			}
			if next == x {
				done[i] = true
				remaining--
				continue
			}
			xs[i] = next
		}
	}
	return remaining == 0
}
