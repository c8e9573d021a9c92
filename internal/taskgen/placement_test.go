package taskgen

import (
	"math/rand"
	"slices"
	"testing"

	"dpcpp/internal/rt"
)

// pickWithRoom picks a uniformly random vertex whose cap can absorb one more
// critical section of length cs: it counts the n candidates, draws
// k = r.Intn(n) and walks to the k-th. It is the per-unit scan that
// placeRequests replaces, kept as its reference.
func pickWithRoom(r *rand.Rand, caps, csNeed []rt.Time, cs rt.Time) (int, bool) {
	n := 0
	for x := range caps {
		if csNeed[x]+cs <= caps[x] {
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	k := r.Intn(n)
	for x := range caps {
		if csNeed[x]+cs <= caps[x] {
			if k == 0 {
				return x, true
			}
			k--
		}
	}
	panic("unreachable")
}

// placeRequestsByScan is placeRequests with a full scan of the vertices for
// every unit.
func placeRequestsByScan(r *rand.Rand, caps, csNeed []rt.Time, draws []resourceDraw, placed []int) {
	for i, d := range draws {
		for unit := int64(0); unit < d.n; unit++ {
			x, ok := pickWithRoom(r, caps, csNeed, d.cs)
			if !ok {
				break
			}
			csNeed[x] += d.cs
			placed[x*len(draws)+i]++
		}
	}
}

// TestPlaceRequestsMatchesScan: on random caps, starting csNeed and draws,
// placeRequests places every unit where the per-unit scan does, leaves the
// same csNeed, and consumes the random stream identically, so the next
// r.Int63() agrees as well. The draws include ones that fill vertices
// mid-draw and ones that run out of candidates.
func TestPlaceRequestsMatchesScan(t *testing.T) {
	gen := rand.New(rand.NewSource(7))
	filled, exhausted := 0, 0
	for trial := 0; trial < 3000; trial++ {
		n := 1 + gen.Intn(40)
		caps := make([]rt.Time, n)
		need := make([]rt.Time, n)
		for x := range caps {
			caps[x] = rt.Time(gen.Intn(120))
			need[x] = rt.Time(gen.Intn(int(caps[x]) + 20)) // some start over their cap
		}
		var draws []resourceDraw
		for q := 0; q < 8; q++ {
			if gen.Intn(2) == 0 {
				draws = append(draws, resourceDraw{q: rt.ResourceID(q),
					n: int64(1 + gen.Intn(40)), cs: rt.Time(1 + gen.Intn(60))})
			}
		}

		seed := gen.Int63()
		wantNeed, gotNeed := slices.Clone(need), slices.Clone(need)
		wantPlaced, gotPlaced := make([]int, n*len(draws)), make([]int, n*len(draws))
		rWant, rGot := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		placeRequestsByScan(rWant, caps, wantNeed, draws, wantPlaced)
		placeRequests(rGot, caps, gotNeed, draws, gotPlaced)

		if !slices.Equal(gotPlaced, wantPlaced) {
			t.Fatalf("trial %d: placed %v, want %v (caps %v, csNeed %v, draws %+v)",
				trial, gotPlaced, wantPlaced, caps, need, draws)
		}
		if !slices.Equal(gotNeed, wantNeed) {
			t.Fatalf("trial %d: csNeed %v, want %v", trial, gotNeed, wantNeed)
		}
		if got, want := rGot.Int63(), rWant.Int63(); got != want {
			t.Fatalf("trial %d: next Int63 %d, want %d: the random stream diverged", trial, got, want)
		}

		for i, d := range draws {
			units, full := int64(0), false
			for x := 0; x < n; x++ {
				units += int64(wantPlaced[x*len(draws)+i])
				full = full || (wantPlaced[x*len(draws)+i] > 0 && wantNeed[x]+d.cs > caps[x])
			}
			if units < d.n {
				exhausted++
			} else if full {
				filled++
			}
		}
	}
	if filled == 0 || exhausted == 0 {
		t.Fatalf("coverage: %d draws filled a vertex and completed, %d ran out of candidates", filled, exhausted)
	}
	t.Logf("%d draws filled a vertex and completed, %d ran out of candidates", filled, exhausted)
}
