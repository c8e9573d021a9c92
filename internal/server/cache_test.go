package server

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// distinctKeys returns n distinct keys.
func distinctKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	return keys
}

func TestResultCacheLRU(t *testing.T) {
	// Capacity two, three keys: the insert that overflows the
	// cache evicts the least recently used entry, a get refreshes recency,
	// and a re-add replaces the value without growth.
	c := newLRU[*MethodResult](2)
	keys := distinctKeys(3)
	a, b, d := keys[0], keys[1], keys[2]

	c.add(a, &MethodResult{Rounds: 1})
	if v, ok := c.get(a); !ok || v.Rounds != 1 {
		t.Fatal("missing entry just added")
	}
	c.add(b, &MethodResult{Rounds: 2})
	if _, ok := c.get(a); !ok { // refresh a: b becomes the LRU
		t.Fatal("entry evicted below capacity")
	}
	c.add(b, &MethodResult{Rounds: 3}) // refresh, no growth
	if v, _ := c.get(b); v == nil || v.Rounds != 3 {
		t.Fatal("re-add did not replace the value")
	}
	c.add(d, &MethodResult{Rounds: 4}) // over capacity: evicts the LRU (a)
	if _, ok := c.get(a); ok {
		t.Fatal("LRU did not evict the least recently used entry")
	}
	if _, ok := c.get(b); !ok {
		t.Fatal("recently used entry evicted instead")
	}
	if _, ok := c.get(d); !ok {
		t.Fatal("newest entry evicted instead")
	}
	if got := c.entries(); got != 2 {
		t.Fatalf("entries() = %d, want 2", got)
	}
}

// TestResultCacheCapacityBound: a cache configured for size entries never
// holds more, no matter how many keys are inserted.
func TestResultCacheCapacityBound(t *testing.T) {
	const size = 100
	c := newLRU[*MethodResult](size)
	for i := 0; i < 5*size; i++ {
		c.add(fmt.Sprintf("key-%d", i), &MethodResult{Rounds: i})
		if got := c.entries(); got > size {
			t.Fatalf("after %d inserts: entries() = %d, above configured size %d", i+1, got, size)
		}
	}
	if got := c.entries(); got != size {
		t.Fatalf("full cache holds %d entries, want exactly %d", got, size)
	}
	// The newest entry survives its own insert's eviction pass.
	if _, ok := c.get(fmt.Sprintf("key-%d", 5*size-1)); !ok {
		t.Fatal("most recent insert was evicted")
	}
}

// TestResultCacheTinyNeverEvictsFreshInsert: a size-1 cache evicts the
// stale entry on insert, never the entry it just added.
func TestResultCacheTinyNeverEvictsFreshInsert(t *testing.T) {
	c := newLRU[*MethodResult](1)
	c.add("key-a", &MethodResult{Rounds: 1})
	c.add("key-b", &MethodResult{Rounds: 2})
	if v, ok := c.get("key-b"); !ok || v.Rounds != 2 {
		t.Fatal("fresh insert evicted itself while a stale entry survived")
	}
	if _, ok := c.get("key-a"); ok {
		t.Fatal("stale entry retained past capacity")
	}
	if got := c.entries(); got != 1 {
		t.Fatalf("entries() = %d, want 1", got)
	}
}

// TestLRUConcurrentBound: goroutines adding and reading overlapping keys on
// a small cache never push it past its size (run under -race in CI).
func TestLRUConcurrentBound(t *testing.T) {
	const size, workers, ops = 8, 4, 2000
	c := newLRU[*MethodResult](size)
	keys := distinctKeys(3 * size)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := keys[(w*7+i)%len(keys)]
				if i%3 == 0 {
					c.get(k)
				} else {
					c.add(k, &MethodResult{Rounds: i})
				}
				if got := c.entries(); got > size {
					t.Errorf("entries() = %d, above configured size %d", got, size)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.entries(); got != size {
		t.Fatalf("after the run entries() = %d, want %d", got, size)
	}
}

func TestResultCacheCapacityFloor(t *testing.T) {
	c := newLRU[*MethodResult](1) // must still hold at least one entry
	c.add("x", &MethodResult{})
	if _, ok := c.get("x"); !ok {
		t.Fatal("tiny cache cannot hold a single entry")
	}
	c.add("y", &MethodResult{})
	if got := c.entries(); got != 1 {
		t.Fatalf("size-1 cache holds %d entries", got)
	}
}

func TestFlightGroupSequential(t *testing.T) {
	var g flightGroup[*MethodResult]
	ctx := context.Background()
	calls := 0
	v1, err, shared := g.do(ctx, "k", func(context.Context) (*MethodResult, error) {
		calls++
		return &MethodResult{Rounds: 7}, nil
	})
	if err != nil || shared || v1.Rounds != 7 || calls != 1 {
		t.Fatalf("first do: err=%v shared=%v calls=%d", err, shared, calls)
	}
	// After completion the key is released: a later call runs again.
	_, err, shared = g.do(ctx, "k", func(context.Context) (*MethodResult, error) {
		calls++
		return &MethodResult{}, nil
	})
	if err != nil || shared || calls != 2 {
		t.Fatalf("second do: err=%v shared=%v calls=%d, want a fresh execution", err, shared, calls)
	}
}

func TestFlightGroupCoalesces(t *testing.T) {
	var g flightGroup[*MethodResult]
	const n = 8
	started := make(chan struct{})
	release := make(chan struct{})
	calls := 0
	leaderFn := func(context.Context) (*MethodResult, error) {
		close(started)
		calls++
		<-release
		return &MethodResult{Rounds: 42}, nil
	}

	var wg sync.WaitGroup
	sharedCount := 0
	var mu sync.Mutex
	run := func(fn func(context.Context) (*MethodResult, error)) {
		defer wg.Done()
		v, err, shared := g.do(context.Background(), "k", fn)
		if err != nil || v.Rounds != 42 {
			t.Errorf("wrong value %+v (err %v)", v, err)
		}
		mu.Lock()
		if shared {
			sharedCount++
		}
		mu.Unlock()
	}
	wg.Add(1)
	go run(leaderFn)
	<-started // leader registered and executing
	for i := 0; i < n-1; i++ {
		wg.Add(1)
		go run(func(context.Context) (*MethodResult, error) {
			t.Error("follower fn executed: coalescing failed")
			return &MethodResult{Rounds: 42}, nil
		})
	}
	// Release only once every follower has joined the in-flight call, so
	// none can arrive late and start a second execution.
	deadline := time.Now().Add(10 * time.Second)
	for g.waiting("k") < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers coalesced", g.waiting("k"), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	if sharedCount != n-1 {
		t.Fatalf("%d callers saw shared=true, want %d", sharedCount, n-1)
	}
}
