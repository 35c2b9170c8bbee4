package plan

import (
	"container/list"
	"sync"
)

// Cache is an LRU cache of compiled physical plans, keyed on the
// statement's normalized text plus the catalog version it was compiled
// against. Plans are immutable once compiled (a parameterized
// template's argument values travel beside it, never in it), so one
// cached plan serves concurrent queries. A catalog change bumps the version, which
// makes every older entry unreachable; stale entries age out through
// normal LRU eviction.
type Cache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // front = most recent; values are *cacheEntry
	byKey map[cacheKey]*list.Element

	hits, misses, evictions int64
}

type cacheKey struct {
	sql     string
	version int64
}

type cacheEntry struct {
	key  cacheKey
	plan *Plan
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Hits, Misses, Evictions int64
	Entries                 int
}

// NewCache builds a cache holding up to capacity plans; capacity <= 0
// disables caching (every Get misses, Put is a no-op).
func NewCache(capacity int) *Cache {
	return &Cache{
		cap:   capacity,
		lru:   list.New(),
		byKey: make(map[cacheKey]*list.Element),
	}
}

// Get returns the plan cached for (sql, version), if any.
func (c *Cache) Get(sql string, version int64) (*Plan, bool) {
	if c == nil || c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[cacheKey{sql, version}]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).plan, true
}

// Put caches the plan under (sql, version), evicting the least
// recently used entry when full.
func (c *Cache) Put(sql string, version int64, p *Plan) {
	if c == nil || c.cap <= 0 || p == nil {
		return
	}
	key := cacheKey{sql, version}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).plan = p
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.byKey, back.Value.(*cacheEntry).key)
		c.evictions++
	}
	c.byKey[key] = c.lru.PushFront(&cacheEntry{key: key, plan: p})
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.lru.Len()}
}
