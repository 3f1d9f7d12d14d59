package jsonski

import (
	"container/list"
	"strings"
	"sync"
)

// DefaultCacheSize is the capacity used by NewCache when max <= 0.
const DefaultCacheSize = 128

// Cache is a concurrency-safe LRU cache of compiled queries keyed by
// their source expression. Compiling a JSONPath is cheap but not free
// (parse, automaton construction, engine-pool setup); a long-lived
// service that answers ad-hoc path queries should compile each distinct
// expression once and reuse the immutable *Query / *QuerySet across
// requests. Cache is that memoization layer — it is what cmd/jsonskid
// sits on, but it is equally usable by any embedding application.
//
// Lookups compile under the cache lock, so a given expression is
// compiled at most once no matter how many goroutines race on it.
// Compile errors are not cached; a bad expression fails every time.
type Cache struct {
	mu        sync.Mutex
	max       int
	ll        *list.List // front = most recently used
	items     map[cacheKey]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

// cacheKey keeps queries and sets in disjoint key spaces. A set's expr
// joins its paths with NUL, which no single expression may contain.
type cacheKey struct {
	set  bool
	expr string
}

type cacheEntry struct {
	key cacheKey
	q   *Query
	qs  *QuerySet
}

// NewCache returns an LRU cache holding at most max compiled queries.
// max <= 0 selects DefaultCacheSize.
func NewCache(max int) *Cache {
	if max <= 0 {
		max = DefaultCacheSize
	}
	return &Cache{
		max:   max,
		ll:    list.New(),
		items: make(map[cacheKey]*list.Element),
	}
}

// Query returns the compiled form of expr, compiling and inserting it on
// first use.
func (c *Cache) Query(expr string) (*Query, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[cacheKey{expr: expr}]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).q, nil
	}
	c.misses++
	q, err := Compile(expr)
	if err != nil {
		return nil, err
	}
	c.insert(&cacheEntry{key: cacheKey{expr: expr}, q: q})
	return q, nil
}

// QuerySet returns the compiled set for exprs, compiling and inserting
// it on first use. The set is keyed by the exact expression sequence, so
// the same paths in a different order are a distinct entry.
func (c *Cache) QuerySet(exprs ...string) (*QuerySet, error) {
	key := cacheKey{set: true, expr: strings.Join(exprs, "\x00")}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).qs, nil
	}
	c.misses++
	qs, err := CompileSet(exprs...)
	if err != nil {
		return nil, err
	}
	c.insert(&cacheEntry{key: key, qs: qs})
	return qs, nil
}

// insert adds an entry as most recently used, evicting from the back if
// over capacity. Caller holds c.mu.
func (c *Cache) insert(e *cacheEntry) {
	c.items[e.key] = c.ll.PushFront(e)
	for c.ll.Len() > c.max {
		old := c.ll.Back()
		c.ll.Remove(old)
		delete(c.items, old.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Size      int
	Cap       int
}

// HitRate is Hits / (Hits + Misses), or 0 before the first lookup.
func (cs CacheStats) HitRate() float64 {
	total := cs.Hits + cs.Misses
	if total == 0 {
		return 0
	}
	return float64(cs.Hits) / float64(total)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      c.ll.Len(),
		Cap:       c.max,
	}
}
