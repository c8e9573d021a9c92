package obs

import (
	"sync"
	"testing"
	"time"
)

// TestObserveBucketBoundaries pins the `le` semantics: an observation
// exactly on a bound lands in that bound's bucket (cumulative counts
// include it), one nanosecond above lands in the next.
func TestObserveBucketBoundaries(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Microsecond, time.Millisecond})
	h.Observe(time.Microsecond)     // exactly on the first bound
	h.Observe(time.Microsecond + 1) // just above it
	h.Observe(time.Millisecond)     // exactly on the second bound
	h.Observe(time.Millisecond + 1) // +Inf bucket
	h.Observe(-5 * time.Second)     // clamps to 0, first bucket
	s := h.Snapshot()
	if want := []int64{2, 4}; s.Counts[0] != want[0] || s.Counts[1] != want[1] {
		t.Fatalf("cumulative counts = %v, want %v", s.Counts, want)
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if got := h.Sum(); got != time.Microsecond+time.Microsecond+1+time.Millisecond+time.Millisecond+1 {
		t.Fatalf("sum = %v (negative observation must clamp to 0)", got)
	}
}

func TestNewHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds must panic at construction")
		}
	}()
	NewHistogram([]time.Duration{time.Millisecond, time.Microsecond})
}

// TestEWMA pins the trend estimate: the first sample is adopted verbatim,
// later samples move it an eighth of the way (the semantics the server's
// Retry-After estimate has always had).
func TestEWMA(t *testing.T) {
	h := NewHistogram(DefaultLatencyBounds())
	if h.EWMA() != 0 {
		t.Fatal("EWMA must be 0 before any observation")
	}
	h.Observe(800 * time.Millisecond)
	if got := h.EWMA(); got != 800*time.Millisecond {
		t.Fatalf("first sample: EWMA = %v, want 800ms", got)
	}
	h.Observe(1600 * time.Millisecond)
	want := 800*time.Millisecond + 800*time.Millisecond/8
	if got := h.EWMA(); got != want {
		t.Fatalf("second sample: EWMA = %v, want %v", got, want)
	}
	// A stream of zero observations must not make the EWMA look like
	// "no data yet": it floors at 1ns instead of reaching 0.
	for i := 0; i < 200; i++ {
		h.Observe(0)
	}
	if got := h.EWMA(); got < 1 {
		t.Fatalf("EWMA decayed to %v; must stay >= 1ns once data exists", got)
	}
}

// TestConcurrentObserve hammers one histogram from many goroutines; under
// -race this doubles as the lock-freedom proof, and the exact totals prove
// no observation is lost.
func TestConcurrentObserve(t *testing.T) {
	h := NewHistogram(DefaultLatencyBounds())
	const goroutines, perG = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(g+1) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("count = %d, want %d", got, goroutines*perG)
	}
	var wantSum time.Duration
	for g := 0; g < goroutines; g++ {
		wantSum += time.Duration(g+1) * time.Microsecond * perG
	}
	if got := h.Sum(); got != wantSum {
		t.Fatalf("sum = %v, want %v", got, wantSum)
	}
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("snapshot count = %d, want %d", s.Count, goroutines*perG)
	}
}

// TestObserveZeroAlloc gates the hot-path property the whole design leans
// on: recording a sample allocates nothing.
func TestObserveZeroAlloc(t *testing.T) {
	h := NewHistogram(DefaultLatencyBounds())
	if n := testing.AllocsPerRun(1000, func() { h.Observe(42 * time.Microsecond) }); n != 0 {
		t.Fatalf("Observe: %v allocs/run, want 0", n)
	}
}
