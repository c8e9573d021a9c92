package obs

import (
	"sync/atomic"
	"time"
)

// Histogram is a lock-free fixed-bucket latency histogram. Buckets are
// cumulative-upper-bound style (Prometheus `le` semantics): an observation
// d lands in the first bucket whose bound is >= d, with an implicit +Inf
// bucket past the last bound. All state is preallocated at construction;
// Observe performs only atomic operations and allocates nothing (gated by
// TestObserveZeroAlloc), so histograms may sit on the analysis hot path.
//
// Alongside the buckets, every Histogram maintains an exponentially
// weighted moving average of its observations (alpha = 1/8, first sample
// adopted as-is). The EWMA is what backpressure estimates want — recent
// latency, not lifetime mean — and folding it into Observe keeps a single
// recorder as the source of truth for both distribution and trend.
type Histogram struct {
	bounds []int64        // ascending upper bounds in nanoseconds
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Int64   // nanoseconds
	ewma   atomic.Int64   // nanoseconds; 0 = no observation yet
}

// NewHistogram builds a histogram over the given ascending bucket upper
// bounds. The bounds slice is copied; an empty slice yields a single +Inf
// bucket (still a valid counter/sum/EWMA recorder).
func NewHistogram(bounds []time.Duration) *Histogram {
	h := &Histogram{
		bounds: make([]int64, len(bounds)),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	for i, b := range bounds {
		h.bounds[i] = int64(b)
		if i > 0 && h.bounds[i] <= h.bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return h
}

// DefaultLatencyBounds covers the service's observed range: microsecond
// cache hits through multi-second sweep analyses, roughly logarithmic at
// 1-2.5-5 per decade. The same layout serves request latency and per-stage
// analysis timing, so dashboards can overlay them.
func DefaultLatencyBounds() []time.Duration {
	return []time.Duration{
		1 * time.Microsecond, 2500 * time.Nanosecond, 5 * time.Microsecond,
		10 * time.Microsecond, 25 * time.Microsecond, 50 * time.Microsecond,
		100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
		1 * time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
		10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
		1 * time.Second, 2500 * time.Millisecond, 5 * time.Second,
		10 * time.Second, 30 * time.Second, 60 * time.Second,
	}
}

// Observe records one duration. Negative observations clamp to zero (a
// clock step mid-measurement must not corrupt the distribution). Safe for
// concurrent use; never allocates.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	// Linear scan: the bounds slice is small (~24) and latencies
	// concentrate in the low buckets, so this beats a binary search's
	// branch misses and keeps the path trivially allocation-free.
	i := 0
	for i < len(h.bounds) && ns > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(ns)
	for {
		old := h.ewma.Load()
		next := ns
		if old != 0 {
			next = old + (ns-old)/8
			if next == 0 {
				next = 1 // keep "no data yet" distinguishable
			}
		}
		if h.ewma.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the total observed time.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// EWMA returns the exponentially weighted moving average of recent
// observations (alpha = 1/8), or 0 when nothing has been observed.
func (h *Histogram) EWMA() time.Duration { return time.Duration(h.ewma.Load()) }

// HistogramSnapshot is one consistent read of a histogram for exposition:
// cumulative bucket counts per bound plus the derived total. Count is the
// sum of the per-bucket reads, so Buckets always sum to it exactly.
type HistogramSnapshot struct {
	Bounds []int64 // upper bounds in nanoseconds (no +Inf entry)
	Counts []int64 // cumulative; Counts[i] = observations <= Bounds[i]
	Count  int64   // total including the +Inf bucket
	SumNS  int64
}

// Snapshot captures the histogram for rendering. It allocates; call it on
// scrape paths only.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.bounds)),
		SumNS:  h.sum.Load(),
	}
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		cum += c
		if i < len(s.Counts) {
			s.Counts[i] = cum
		}
	}
	s.Count = cum
	return s
}
