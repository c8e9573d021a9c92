// Package rta provides the generic fixed-point iteration used by every
// response-time analysis in this repository (Lemma 2's request response
// times and Theorem 1's path response times are both least fixed points of
// monotone recurrences). FixPoint solves one recurrence; MaxFixPoint
// returns the largest least fixed point of a family, the bound over a
// task's candidate paths, iterating only the members that can raise it.
//
//schedlint:deterministic
package rta

import "dpcpp/internal/rt"

// MaxIterations bounds a single fixed-point computation; recurrences over
// integer nanoseconds converge long before this on any schedulable input.
const MaxIterations = 1 << 20

// FixPoint computes the least fixed point of the monotone function f
// starting from x0, i.e. the limit of x_{k+1} = f(x_k). It stops as soon as
// the iterate exceeds limit and reports converged=false (callers treat that
// as "deadline exceeded / unschedulable"). f must satisfy f(x) >= x0 and be
// monotone non-decreasing for the result to be the least fixed point; a
// detected non-monotone step (f(x) < x, a caller bug) also reports
// converged=false, so a broken recurrence can never certify schedulability.
func FixPoint(x0, limit rt.Time, f func(rt.Time) rt.Time) (x rt.Time, converged bool) {
	x = x0
	for i := 0; i < MaxIterations; i++ {
		if x > limit {
			return x, false
		}
		next := f(x)
		if next < x {
			// A non-monotone step indicates a bug in the caller's
			// recurrence. The iterate is not a fixed point (f(x) != x), so
			// reporting convergence here would let a buggy recurrence
			// certify schedulability; fail the computation instead —
			// callers treat non-convergence as "unschedulable", which is
			// the only sound verdict available.
			return x, false
		}
		if next == x {
			return x, true
		}
		x = next
	}
	return rt.Infinity, false
}

// MaxFixPoint returns the largest least fixed point over len(xs) monotone
// recurrences x <- step(v, x), recurrence v starting at xs[v], without
// iterating every recurrence to its own fixed point. It reports
// converged=false as soon as one recurrence that it iterates fails
// FixPoint; callers treat that exactly like one diverged FixPoint. With no
// recurrences it converges at 0. Each step(v, .) must meet FixPoint's
// contract, step(v, x) >= xs[v] and monotone non-decreasing; a step that
// goes down is caught only in a recurrence that MaxFixPoint iterates.
//
// The recurrence with the largest start value (the first, on ties) runs
// first, to its least fixed point worst, so every other start value xs[v]
// is at most worst. A recurrence v with step(v, worst) <= worst is then
// admitted with that one step: by monotonicity every iterate from xs[v]
// stays at or below step(v, worst) <= worst <= limit, so its least fixed
// point cannot raise the maximum and it cannot exceed limit. Every other
// recurrence iterates from its own xs[v], never from worst: a recurrence
// may have several fixed points, and a start above its least one can
// settle on a larger one (TestMaxFixPointIsLeast).
//
//schedlint:hotpath
func MaxFixPoint(xs []rt.Time, limit rt.Time, step func(v int, x rt.Time) rt.Time) (worst rt.Time, converged bool) {
	if len(xs) == 0 {
		return 0, true
	}
	first := 0
	for v, x := range xs {
		if x > xs[first] {
			first = v
		}
	}
	//schedlint:ignore hotpath closure captures only locals that never escape FixPoint; the alloc-gate benchmarks hold it to 0 allocs/op
	worst, ok := FixPoint(xs[first], limit, func(x rt.Time) rt.Time { return step(first, x) })
	if !ok {
		return worst, false
	}
	for v, x := range xs {
		if v == first || step(v, worst) <= worst {
			continue
		}
		//schedlint:ignore hotpath closure captures only locals that never escape FixPoint; the alloc-gate benchmarks hold it to 0 allocs/op
		r, ok := FixPoint(x, limit, func(x rt.Time) rt.Time { return step(v, x) })
		if !ok {
			return r, false
		}
		worst = max(worst, r)
	}
	return worst, true
}

// Eta returns eta_j(L) = ceil((L + R) / T), the maximum number of jobs of a
// task with period T and response-time bound R that can overlap a window of
// length L (Sec. IV-B).
func Eta(L, R, T rt.Time) int64 {
	if L < 0 {
		return 0
	}
	if rt.SatAdd(L, R) >= rt.Infinity {
		return int64(rt.Infinity)
	}
	return rt.CeilDiv(L+R, T)
}
