package jsonski

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"sync"

	"jsonski/internal/bits"
	"jsonski/internal/stream"
)

// DefaultIndexCacheBytes is the byte budget used by NewIndexCache when
// maxBytes <= 0.
const DefaultIndexCacheBytes = 64 << 20

// IndexCache is a concurrency-safe, byte-bounded LRU of structural
// indexes keyed by document content. A service that answers many
// queries over a working set of hot documents pays the index build
// (classification plus the sequential string-carry fold) once per
// document instead of once per request; every subsequent request
// borrows the cached masks.
//
// Entries are refcounted, so an index can be evicted while readers are
// still streaming over it: eviction drops the cache's reference, and
// the mask buffer returns to the pool only when the last in-flight
// reader releases its own.
//
// A cached entry holds its own copy of the document, so callers may
// reuse their buffers. The budget counts both the mask buffers (~9/8
// of the input length) and those copies.
type IndexCache struct {
	mu        sync.Mutex
	maxBytes  int64
	curBytes  int64
	ll        *list.List                 // front = most recently used
	items     map[uint64][]*list.Element // hash -> entries (collision bucket)
	hits      int64
	misses    int64
	evictions int64
	// bytesIndexed totals the input bytes run through index builds,
	// including builds that lost an insert race and were dropped.
	bytesIndexed int64
}

type indexEntry struct {
	hash uint64
	ix   *Index
	cost int64
}

// NewIndexCache returns an index cache bounded to about maxBytes of
// retained memory. maxBytes <= 0 selects DefaultIndexCacheBytes.
func NewIndexCache(maxBytes int64) *IndexCache {
	if maxBytes <= 0 {
		maxBytes = DefaultIndexCacheBytes
	}
	return &IndexCache{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[uint64][]*list.Element),
	}
}

// Get returns a structural index for data, building and caching one on
// first sight of the document. The returned index carries one reference
// owned by the caller, who must Release it when done streaming — on a
// hit that reference pins the entry against concurrent eviction.
//
// Get keeps no reference to data once the returned index is released:
// a document it caches is indexed over a copy, so the caller may reuse
// or overwrite its buffer after the Release.
//
// Documents larger than the cache budget are indexed in place but not
// cached; the returned index is then recycled by the caller's Release
// alone.
func (ic *IndexCache) Get(data []byte) *Index {
	h := contentHash(data)
	ic.mu.Lock()
	if ix := ic.lookup(h, data); ix != nil {
		ic.hits++
		ic.mu.Unlock()
		return ix
	}
	ic.misses++
	ic.mu.Unlock()

	// Build outside the lock: indexing is O(len(data)), and holding the
	// lock across it would serialize every concurrent miss. A document
	// the cache will keep is indexed over its own copy, one memcpy next
	// to the build.
	cost := indexCost(len(data))
	src := data
	if cost <= ic.maxBytes {
		src = bytes.Clone(data)
	}
	ix := BuildIndex(src)

	ic.mu.Lock()
	ic.bytesIndexed += int64(len(data))
	// Re-check: another goroutine may have inserted the same document
	// while we were building.
	if cached := ic.lookup(h, data); cached != nil {
		ic.mu.Unlock()
		ix.Release() // drop the duplicate build
		return cached
	}
	if cost <= ic.maxBytes {
		ix.Acquire() // the cache's own reference
		el := ic.ll.PushFront(&indexEntry{hash: h, ix: ix, cost: cost})
		ic.items[h] = append(ic.items[h], el)
		ic.curBytes += cost
		ic.evict()
	}
	ic.mu.Unlock()
	return ix
}

// contentHash is the cache's content key: an FNV-1a-style hash folding
// eight bytes per round. Collisions are disambiguated by a full byte
// comparison (lookup), so it needs determinism and spread, not collision
// resistance; it sits on every single-document request's path, so it
// runs at memory speed rather than one multiply per byte.
func contentHash(data []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for len(data) >= 8 {
		h ^= binary.LittleEndian.Uint64(data)
		h *= prime64
		data = data[8:]
	}
	for _, b := range data {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// indexCost is the memory a cached index of an n-byte document
// retains: the document's copy plus its mask rows (Index.MaskBytes).
func indexCost(n int) int64 {
	words := (n + bits.WordSize - 1) / bits.WordSize
	return int64(n + words*stream.RowStride*8)
}

// lookup finds the entry for (h, data), moves it to the front, and
// returns its index with a reference taken for the caller. Caller holds
// ic.mu.
func (ic *IndexCache) lookup(h uint64, data []byte) *Index {
	for _, el := range ic.items[h] {
		e := el.Value.(*indexEntry)
		if bytes.Equal(e.ix.Data(), data) {
			ic.ll.MoveToFront(el)
			e.ix.Acquire()
			return e.ix
		}
	}
	return nil
}

// evict trims least-recently-used entries until within budget. Caller
// holds ic.mu.
func (ic *IndexCache) evict() {
	for ic.curBytes > ic.maxBytes && ic.ll.Len() > 0 {
		ic.removeElement(ic.ll.Back())
		ic.evictions++
	}
}

// removeElement unlinks an entry and drops the cache's reference on its
// index. Caller holds ic.mu.
func (ic *IndexCache) removeElement(el *list.Element) {
	e := el.Value.(*indexEntry)
	ic.ll.Remove(el)
	bucket := ic.items[e.hash]
	for i, b := range bucket {
		if b == el {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			break
		}
	}
	if len(bucket) == 0 {
		delete(ic.items, e.hash)
	} else {
		ic.items[e.hash] = bucket
	}
	ic.curBytes -= e.cost
	e.ix.Release()
}

// Purge drops every entry. In-flight readers holding references are
// unaffected.
func (ic *IndexCache) Purge() {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	for ic.ll.Len() > 0 {
		ic.removeElement(ic.ll.Back())
	}
}

// Len returns the number of cached indexes.
func (ic *IndexCache) Len() int {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	return ic.ll.Len()
}

// IndexCacheStats is a point-in-time snapshot of index cache
// effectiveness.
type IndexCacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	// Bytes is the retained memory (documents + masks); CapBytes the
	// budget.
	Bytes    int64
	CapBytes int64
	// BytesIndexed totals the input bytes run through index builds.
	BytesIndexed int64
}

// HitRate is Hits / (Hits + Misses), or 0 before the first lookup.
func (s IndexCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns a snapshot of the cache counters.
func (ic *IndexCache) Stats() IndexCacheStats {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	return IndexCacheStats{
		Hits:         ic.hits,
		Misses:       ic.misses,
		Evictions:    ic.evictions,
		Entries:      ic.ll.Len(),
		Bytes:        ic.curBytes,
		CapBytes:     ic.maxBytes,
		BytesIndexed: ic.bytesIndexed,
	}
}
