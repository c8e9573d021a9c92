package rta

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dpcpp/internal/rt"
)

func TestFixPointConstant(t *testing.T) {
	x, ok := FixPoint(5, 100, func(x rt.Time) rt.Time { return 42 })
	if !ok || x != 42 {
		t.Errorf("FixPoint(const 42) = %d, %v", x, ok)
	}
}

func TestFixPointIdentity(t *testing.T) {
	x, ok := FixPoint(7, 100, func(x rt.Time) rt.Time { return x })
	if !ok || x != 7 {
		t.Errorf("FixPoint(identity) = %d, %v", x, ok)
	}
}

func TestFixPointClassicRTA(t *testing.T) {
	// Classic uniprocessor RTA: C=2, one higher-priority task C=1, T=4.
	// R = 2 + ceil(R/4)*1 -> R = 3.
	f := func(x rt.Time) rt.Time { return 2 + rt.CeilDiv(x, 4) }
	x, ok := FixPoint(2, 100, f)
	if !ok || x != 3 {
		t.Errorf("classic RTA fixed point = %d, %v; want 3", x, ok)
	}
}

func TestFixPointDivergence(t *testing.T) {
	f := func(x rt.Time) rt.Time { return x + 1 }
	x, ok := FixPoint(0, 50, f)
	if ok {
		t.Errorf("divergent recurrence reported converged at %d", x)
	}
	if x <= 50 {
		t.Errorf("divergent recurrence stopped below limit: %d", x)
	}
}

// TestFixPointNonMonotone: a recurrence that steps downward is a caller
// bug, not a fixed point. FixPoint must report converged=false so the
// caller's "non-convergence = unschedulable" handling keeps the verdict
// sound, instead of silently certifying a value with f(x) != x.
func TestFixPointNonMonotone(t *testing.T) {
	calls := 0
	f := func(x rt.Time) rt.Time {
		calls++
		if x < 10 {
			return x + 5
		}
		return x - 3 // deliberately non-monotone past 10
	}
	x, ok := FixPoint(0, 100, f)
	if ok {
		t.Errorf("non-monotone recurrence reported converged=true at %d", x)
	}
	if calls == 0 || calls > 4 {
		t.Errorf("expected the downward step to stop iteration quickly, got %d calls", calls)
	}

	// Immediately decreasing from x0 must fail too.
	if x, ok := FixPoint(50, 100, func(x rt.Time) rt.Time { return x - 1 }); ok {
		t.Errorf("decreasing recurrence reported converged=true at %d", x)
	}
}

func TestFixPointLimitExceededImmediately(t *testing.T) {
	if _, ok := FixPoint(200, 100, func(x rt.Time) rt.Time { return x }); ok {
		t.Error("x0 above limit must report non-convergence")
	}
}

func TestFixPointIsLeast(t *testing.T) {
	// f has fixed points at 10 and 20 (staircase); starting below 10 we
	// must land on 10.
	f := func(x rt.Time) rt.Time {
		if x <= 10 {
			return 10
		}
		return 20
	}
	x, ok := FixPoint(0, 100, f)
	if !ok || x != 10 {
		t.Errorf("least fixed point = %d, %v; want 10", x, ok)
	}
}

func TestEta(t *testing.T) {
	cases := []struct {
		L, R, T rt.Time
		want    int64
	}{
		{0, 0, 10, 0},
		{1, 0, 10, 1},
		{10, 0, 10, 1},
		{11, 0, 10, 2},
		{10, 5, 10, 2},
		{100, 10, 10, 11},
		{-5, 3, 10, 0},
	}
	for _, c := range cases {
		if got := Eta(c.L, c.R, c.T); got != c.want {
			t.Errorf("Eta(%d,%d,%d) = %d, want %d", c.L, c.R, c.T, got, c.want)
		}
	}
}

func TestEtaMonotoneInWindow(t *testing.T) {
	f := func(l1, l2 uint16, r uint8, tRaw uint8) bool {
		T := rt.Time(tRaw%100) + 1
		R := rt.Time(r)
		a, b := rt.Time(l1), rt.Time(l2)
		if a > b {
			a, b = b, a
		}
		return Eta(a, R, T) <= Eta(b, R, T)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEtaCountsJobs(t *testing.T) {
	// Property: eta(L) * T >= L (enough jobs to cover the window when R=T).
	f := func(lRaw uint16, tRaw uint8) bool {
		T := rt.Time(tRaw%50) + 1
		L := rt.Time(lRaw)
		return Eta(L, T, T)*T >= L
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// recurrences builds a family of monotone recurrences from a seeded
// source: classic-RTA-shaped ones, x -> c + sum_j ceil(x/T_j)*C_j, and
// staircases x -> max(c, s*ceil(x/s)), which have a fixed point at every
// multiple of s at or above c, so a start above the least one settles on a
// larger one.
func recurrences(rng *rand.Rand, n int) ([]rt.Time, []func(rt.Time) rt.Time) {
	x0s := make([]rt.Time, n)
	fns := make([]func(rt.Time) rt.Time, n)
	for i := range fns {
		c := rt.Time(1 + rng.Intn(40))
		x0s[i] = c
		if rng.Intn(3) == 0 {
			s := rt.Time(2 + rng.Intn(15))
			fns[i] = func(x rt.Time) rt.Time { return max(c, s*rt.CeilDiv(x, s)) }
			continue
		}
		type hp struct{ T, C rt.Time }
		terms := make([]hp, rng.Intn(4))
		for j := range terms {
			terms[j] = hp{T: rt.Time(2 + rng.Intn(30)), C: rt.Time(1 + rng.Intn(5))}
		}
		fns[i] = func(x rt.Time) rt.Time {
			total := c
			for _, h := range terms {
				total = rt.SatAdd(total, rt.SatMul(rt.CeilDiv(x, h.T), h.C))
			}
			return total
		}
	}
	return x0s, fns
}

// TestMaxFixPointMatchesFixPoint pins MaxFixPoint to its definition: for
// any family it returns the largest of the per-recurrence FixPoint values,
// and it fails exactly when some recurrence's FixPoint fails.
func TestMaxFixPointMatchesFixPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(8)
		limit := rt.Time(1 + rng.Intn(400))
		x0s, fns := recurrences(rng, n)
		wantOK := true
		var want rt.Time
		for i, f := range fns {
			x, ok := FixPoint(x0s[i], limit, f)
			wantOK = wantOK && ok
			want = max(want, x)
		}
		got, gotOK := MaxFixPoint(x0s, limit, func(i int, x rt.Time) rt.Time { return fns[i](x) })
		if gotOK != wantOK {
			t.Fatalf("trial %d: MaxFixPoint ok=%v, per-recurrence ok=%v", trial, gotOK, wantOK)
		}
		if gotOK && got != want {
			t.Fatalf("trial %d: MaxFixPoint = %d, max FixPoint = %d", trial, got, want)
		}
	}
}

// TestMaxFixPointIsLeast: a recurrence that the running maximum does not
// certify iterates from its own start value. From 1 the staircase below
// settles on 10, under the maximum 15; started from 15 it would settle on
// 20.
func TestMaxFixPointIsLeast(t *testing.T) {
	steps := []func(rt.Time) rt.Time{
		func(rt.Time) rt.Time { return 15 },
		func(x rt.Time) rt.Time { return 10 * rt.CeilDiv(max(x, 1), 10) },
	}
	got, ok := MaxFixPoint([]rt.Time{15, 1}, 100, func(i int, x rt.Time) rt.Time { return steps[i](x) })
	if !ok || got != 15 {
		t.Fatalf("MaxFixPoint = %d, %v; want 15, true", got, ok)
	}
}

// TestMaxFixPointAdmitsWithOneStep: a recurrence whose step at the running
// maximum stays at or below it costs one evaluation, and the maximum comes
// from the recurrence with the largest start value.
func TestMaxFixPointAdmitsWithOneStep(t *testing.T) {
	calls := make([]int, 3)
	steps := []func(rt.Time) rt.Time{
		func(x rt.Time) rt.Time { return 4 + rt.CeilDiv(x, 10) }, // lfp 5
		func(x rt.Time) rt.Time { return 20 + rt.CeilDiv(x, 4) }, // lfp 27
		func(x rt.Time) rt.Time { return 12 },                    // lfp 12
	}
	got, ok := MaxFixPoint([]rt.Time{4, 20, 12}, 100, func(i int, x rt.Time) rt.Time {
		calls[i]++
		return steps[i](x)
	})
	if !ok || got != 27 {
		t.Fatalf("MaxFixPoint = %d, %v; want 27, true", got, ok)
	}
	if calls[0] != 1 || calls[2] != 1 {
		t.Fatalf("dominated recurrences took %d and %d steps, want 1 each", calls[0], calls[2])
	}
}

func TestMaxFixPointEmpty(t *testing.T) {
	got, ok := MaxFixPoint(nil, 100, func(int, rt.Time) rt.Time { panic("no recurrences") })
	if !ok || got != 0 {
		t.Fatalf("empty family = %d, %v; want 0, true", got, ok)
	}
}

// TestMaxFixPointFails: a recurrence that exceeds the limit or steps down
// fails the family, whether it starts highest or is iterated later.
func TestMaxFixPointFails(t *testing.T) {
	for _, c := range []struct {
		name  string
		xs    []rt.Time
		steps []func(rt.Time) rt.Time
	}{
		{"first diverges", []rt.Time{1, 5}, []func(rt.Time) rt.Time{
			func(rt.Time) rt.Time { return 3 },
			func(x rt.Time) rt.Time { return x + 7 },
		}},
		{"later diverges", []rt.Time{5, 1}, []func(rt.Time) rt.Time{
			func(rt.Time) rt.Time { return 6 },
			func(x rt.Time) rt.Time { return x + 7 },
		}},
		{"later steps down", []rt.Time{5, 4}, []func(rt.Time) rt.Time{
			func(rt.Time) rt.Time { return 6 },
			func(x rt.Time) rt.Time {
				if x <= 6 {
					return 9
				}
				return x - 1
			},
		}},
	} {
		if got, ok := MaxFixPoint(c.xs, 50, func(i int, x rt.Time) rt.Time { return c.steps[i](x) }); ok {
			t.Errorf("%s: MaxFixPoint = %d, converged", c.name, got)
		}
	}
}
