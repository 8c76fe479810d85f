package serve

import (
	"container/list"
	"sync"
)

// lru is a mutex-guarded map that keeps its max most recently used entries;
// max <= 0 disables it (every get misses, every put is dropped). The result
// cache maps a fingerprint to a finished run's result — entries are
// immutable once inserted (responses hand out shallow copies), so a hit is a
// pointer read under a short lock and overlapping and repeated requests are
// answered without re-running BSP. The seed cache is one too.
type lru[K comparable, V any] struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // of *lruEntry; front = most recently used
	items map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](max int) *lru[K, V] {
	return &lru[K, V]{max: max, ll: list.New(), items: map[K]*list.Element{}}
}

// get returns the key's value, when accept (nil: any) takes it, and marks
// it most recently used.
func (c *lru[K, V]) get(key K, accept func(V) bool) (V, bool) {
	var zero V
	if c.max <= 0 {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return zero, false
	}
	e := el.Value.(*lruEntry[K, V])
	if accept != nil && !accept(e.val) {
		return zero, false
	}
	c.ll.MoveToFront(el)
	return e.val, true
}

// put stores the key's value and marks it most recently used. A value
// already held is replaced when replace (nil: always) takes the old one;
// past max entries the least recently used goes.
func (c *lru[K, V]) put(key K, val V, replace func(old V) bool) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*lruEntry[K, V])
		if replace == nil || replace(e.val) {
			e.val = val
		}
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[K, V]{key: key, val: val})
	if c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[K, V]).key)
	}
}

func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
