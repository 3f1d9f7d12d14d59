package jsonski

import (
	"jsonski/internal/ndjson"
	"jsonski/internal/store"
)

// Span is a half-open byte range [Start, End) in a document buffer,
// used as the record table of a serialized NDJSON corpus index.
type Span = store.Span

// CatalogStats is a point-in-time snapshot of catalog effectiveness;
// see Catalog.
type CatalogStats = store.CatalogStats

// CatalogEntry describes one cataloged sidecar; see Catalog.Entries.
type CatalogEntry = store.EntryInfo

// IndexExt is the conventional filename extension for serialized index
// sidecars.
const IndexExt = store.Ext

// ContentHash returns the content key a Catalog files a document under —
// the same hash IndexCache keys on. Exposed so external stores and the
// daemon's /index API can address documents by hash.
func ContentHash(data []byte) uint64 { return store.ContentHash(data) }

// RecordSpans computes the record table of an NDJSON buffer: one
// whitespace-trimmed Span per non-blank line, framed by the same code as
// the reader entry points, so it has their records by construction. Pass
// the result to SaveIndex or Catalog.Put so each record of the serialized
// corpus can later be queried zero-copy via Query.RunIndexedWindow.
func RecordSpans(data []byte) []Span {
	var spans []Span
	for _, rec := range ndjson.Split(nil, data) {
		start := int64(cap(data) - cap(rec)) // rec is a sub-slice of data
		spans = append(spans, Span{Start: start, End: start + int64(len(rec))})
	}
	return spans
}

// SaveIndex serializes an index — document bytes, structural bitmaps,
// and an optional NDJSON record table — to a versioned, checksummed
// sidecar at path. The write is atomic (temp file + rename): a crash
// leaves either the previous file or none. spans, when non-nil, must be
// ordered, non-overlapping, and within the document.
func SaveIndex(path string, x *Index, spans []Span) error {
	return store.Write(path, x.ix, spans)
}

// LoadIndex maps (on linux/darwin; reads elsewhere) a sidecar written
// by SaveIndex and returns a ready-to-stream index over its embedded
// document, plus the record table for NDJSON corpora. The entire file
// is validated — checksums, geometry, content hash — before any mask is
// served; a torn or corrupted file yields an error, never wrong masks.
//
// The returned index reports Mapped() == true, its Data() aliases the
// mapping, and Release unmaps the file; it otherwise behaves like any
// BuildIndex result.
func LoadIndex(path string) (*Index, []Span, error) {
	f, err := store.Open(path)
	if err != nil {
		return nil, nil, err
	}
	ix := f.Index()
	spans := f.Spans()
	f.Close()
	return &Index{ix: ix}, spans, nil
}

// Catalog is a durable sibling of IndexCache: a directory of serialized
// index sidecars keyed by document content hash, LRU-evicted against an
// on-disk byte budget. A process restarted over the same directory
// serves its first repeated document from mapped masks with zero
// rebuilds. All methods are safe for concurrent use.
type Catalog struct {
	c *store.Catalog
}

// OpenCatalog opens (creating if needed) the sidecar directory at dir,
// warming the catalog from every valid sidecar already present and
// deleting corrupt or torn ones. maxBytes <= 0 selects a default
// on-disk budget.
func OpenCatalog(dir string, maxBytes int64) (*Catalog, error) {
	c, err := store.OpenCatalog(dir, maxBytes)
	if err != nil {
		return nil, err
	}
	return &Catalog{c: c}, nil
}

// Get returns a mapped index and record table for data on a hit, or
// (nil, nil) on a miss. The caller owns one reference on the returned
// index and must Release it; that reference keeps the mapping alive
// across any concurrent eviction or Delete.
func (c *Catalog) Get(data []byte) (*Index, []Span) {
	ix, spans := c.c.Get(data)
	if ix == nil {
		return nil, nil
	}
	return &Index{ix: ix}, spans
}

// Put builds, persists, and returns a mapped index for data (with the
// optional NDJSON record spans) — or returns the existing entry without
// rebuilding. Ownership is as in Get.
func (c *Catalog) Put(data []byte, spans []Span) (*Index, []Span, error) {
	ix, sp, err := c.c.Put(data, spans)
	if err != nil {
		return nil, nil, err
	}
	return &Index{ix: ix}, sp, nil
}

// Contains reports whether the catalog holds an entry for hash without
// touching LRU order or the hit/miss counters.
func (c *Catalog) Contains(hash uint64) bool { return c.c.Contains(hash) }

// Delete drops the entry for hash and unlinks its sidecar, reporting
// whether one existed. In-flight readers keep their mappings until
// their final Release.
func (c *Catalog) Delete(hash uint64) bool { return c.c.Delete(hash) }

// Len returns the number of cataloged sidecars.
func (c *Catalog) Len() int { return c.c.Len() }

// Dir returns the sidecar directory.
func (c *Catalog) Dir() string { return c.c.Dir() }

// Entries returns a snapshot of the catalog contents, most recently
// used first.
func (c *Catalog) Entries() []CatalogEntry { return c.c.Entries() }

// Stats returns a snapshot of the catalog counters.
func (c *Catalog) Stats() CatalogStats { return c.c.Stats() }

// Close detaches every entry without unlinking sidecars — they are the
// durable cache the next process warms from. In-flight readers keep
// their mappings until released.
func (c *Catalog) Close() { c.c.Close() }
