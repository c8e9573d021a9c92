package server

import (
	"container/list"
	"sync"
)

// lru is an LRU cache bounded by size entries, guarded by one mutex: each
// operation holds the lock for a map lookup and a list move, far less than
// the request it serves, so the lock is never the bottleneck.
//
// Three instances exist per server: the engine's result cache (keyed by
// taskset hash + method + options fingerprint, holding wire results), the
// engine's retained what-if tasksets (keyed by the bare taskset hash,
// holding finalized tasksets), and the exact-body fast path (keyed by the
// SHA-256 of raw /v1/analyze bodies, holding serialized responses), so a
// repeat of a byte-identical request skips even the JSON decode.
type lru[V any] struct {
	mu   sync.Mutex
	size int
	ll   *list.List // front = most recently used
	m    map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

// newLRU builds a cache holding at most size entries (a size below one is
// raised to one).
func newLRU[V any](size int) *lru[V] {
	return &lru[V]{size: max(size, 1), ll: list.New(), m: make(map[string]*list.Element)}
}

// get returns the cached value and refreshes its recency.
func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// add inserts or refreshes the entry; an insert into a full cache evicts
// the least recently used entry, never the one just added.
func (c *lru[V]) add(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	if c.ll.Len() > c.size {
		old := c.ll.Back()
		c.ll.Remove(old)
		delete(c.m, old.Value.(*lruEntry[V]).key)
	}
}

// entries returns the current number of cached values; it never exceeds
// the size passed to newLRU.
func (c *lru[V]) entries() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(c.ll.Len())
}
