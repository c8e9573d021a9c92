package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// mix is a counter-based generator: value k of request i is a pure hash
// of (seed, i, k), so any request of a stream can be built on its own, in
// any order, by any goroutine.
type mix struct {
	seed int64
	i    int
}

// u64 returns value k: splitmix64 finalizers chained over seed, i and k.
func (m mix) u64(k int) uint64 {
	return splitmix(splitmix(splitmix(uint64(m.seed))^uint64(m.i)) ^ uint64(k))
}

func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns value k reduced to [0, n).
func (m mix) intn(k, n int) int { return int(m.u64(k) % uint64(n)) }

// float returns value k as a float in [0, 1).
func (m mix) float(k int) float64 { return float64(m.u64(k)>>11) / (1 << 53) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durMS and durUS convert durations to the float units metrics report.
func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func durUS(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapSampler tracks the peak live Go heap, the bytes the most recent GC
// marked, while it runs. Live bytes show memory a workload retains (caches,
// delta states) without the GC pacer's headroom, which varies run to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (h *heapSampler) sample() {
	n := liveHeap()
	h.mu.Lock()
	h.peak = max(h.peak, n)
	h.mu.Unlock()
}

// startHeapSampler samples the live heap every few milliseconds until Stop.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling, counts what is live at the end (after one more GC),
// and returns the peak in MB (10^6 bytes).
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	runtime.GC()
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / 1e6
}

// allocCount reads the cumulative heap allocation count, as
// testing.AllocsPerRun does; deltas around a single-goroutine section give
// its allocations.
func allocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
