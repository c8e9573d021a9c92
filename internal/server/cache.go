package server

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// numShards splits the result cache so concurrent requests on different
// tasksets never contend on one mutex. Keys start with a SHA-256 hex
// digest, so any cheap hash distributes them evenly.
const numShards = 16

// lru is a sharded LRU cache bounded by a single global capacity: however
// keys skew across shards, entries() never exceeds the configured size.
// Recency is tracked per shard; when an insert pushes the cache over
// capacity, the victim is the least-recently-used entry of the currently
// largest shard, which under the uniform hashing of SHA-256-prefixed keys
// behaves like per-shard LRU and under adversarial skew still evicts from
// wherever the entries actually are.
//
// Three instances exist per server: the engine's result cache (keyed by
// taskset hash + method + options fingerprint, holding wire results), the
// engine's retained what-if tasksets (keyed by the bare taskset hash,
// holding finalized tasksets), and the exact-body fast path (keyed by the
// SHA-256 of raw /v1/analyze bodies, holding serialized responses), so a
// repeat of a byte-identical request skips even the JSON decode.
type lru[V any] struct {
	shards [numShards]lruShard[V]
	size   int64 // global capacity bound
	len    atomic.Int64
}

type lruShard[V any] struct {
	mu sync.Mutex
	// n mirrors ll.Len() so the eviction scan can find the largest shard
	// without taking every lock.
	n  atomic.Int64
	ll *list.List // front = most recently used
	m  map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

// newLRU builds a cache holding at most size entries in total (a size below
// one is raised to one).
func newLRU[V any](size int) *lru[V] {
	if size < 1 {
		size = 1
	}
	c := &lru[V]{size: int64(size)}
	for i := range c.shards {
		c.shards[i].ll = list.New()
		c.shards[i].m = make(map[string]*list.Element)
	}
	return c
}

func (c *lru[V]) shard(key string) *lruShard[V] {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%numShards]
}

// get returns the cached value and refreshes its recency.
func (c *lru[V]) get(key string) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// add inserts or refreshes the entry, then evicts until the cache is back
// within its global capacity.
func (c *lru[V]) add(key string, val V) {
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.m[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		s.ll.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.m[key] = s.ll.PushFront(&lruEntry[V]{key: key, val: val})
	s.n.Add(1)
	c.len.Add(1)
	s.mu.Unlock()
	for c.len.Load() > c.size {
		if !c.evictOne(s) {
			return
		}
	}
}

// evictOne drops the least-recently-used entry of the largest shard other
// than the one just inserted into — preferring any other shard means an
// insert never evicts its own fresh entry while stale entries sit
// elsewhere (which matters when size < numShards and most shards hold at
// most one entry). Only when every other shard is empty does the
// inserting shard evict its own LRU, which then cannot be the fresh entry
// (the shard holds at least two once the global bound is exceeded).
// A false return means no entry could be found (a concurrent eviction
// drained the candidate); that only ends the caller's loop — the racing
// add runs its own eviction loop against the same global count, so the
// bound holds.
func (c *lru[V]) evictOne(inserted *lruShard[V]) bool {
	for attempt := 0; attempt < 2; attempt++ {
		var victim *lruShard[V]
		max := int64(0)
		for i := range c.shards {
			sh := &c.shards[i]
			if sh == inserted {
				continue
			}
			if n := sh.n.Load(); n > max {
				victim, max = sh, n
			}
		}
		if victim == nil {
			victim = inserted
		}
		victim.mu.Lock()
		if old := victim.ll.Back(); old != nil {
			victim.ll.Remove(old)
			delete(victim.m, old.Value.(*lruEntry[V]).key)
			victim.n.Add(-1)
			c.len.Add(-1)
			victim.mu.Unlock()
			return true
		}
		victim.mu.Unlock()
	}
	return false
}

// entries returns the current number of cached values across all shards;
// it never exceeds the size passed to newLRU.
func (c *lru[V]) entries() int64 { return c.len.Load() }
