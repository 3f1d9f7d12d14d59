package jsonski

import "jsonski/internal/stream"

// Index is a prebuilt structural index over one JSON buffer: every
// per-word bitmap the streaming engines would otherwise compute lazily
// (in-string bits, unescaped quotes, structural metacharacters,
// whitespace) materialized in a single pass. Any number of runs —
// different queries, query sets, parallel shard workers — can then
// borrow the index concurrently, paying the classification and the
// sequential string-carry fold once per document instead of once per
// query.
//
// Building an index only pays off when the same buffer is streamed more
// than once (multiple queries, or a hot document served repeatedly; see
// IndexCache). For a single query over a cold buffer, Query.Run is
// faster because fast-forwarding lets it skip classifying most words
// entirely.
//
// An Index is immutable and safe for concurrent use. Its mask buffer is
// drawn from an internal pool; call Release when done streaming so
// steady-state serving re-indexes without allocating. The indexed
// buffer must not be mutated while the index is alive.
type Index struct {
	ix *stream.Index
}

// BuildIndex materializes the structural index of data in one pass. The
// buffer is referenced, not copied.
func BuildIndex(data []byte) *Index {
	return &Index{ix: stream.NewIndex(data)}
}

// Data returns the indexed buffer.
func (x *Index) Data() []byte { return x.ix.Data() }

// Len returns the indexed buffer's length in bytes.
func (x *Index) Len() int { return x.ix.Len() }

// MaskBytes returns the memory held by the index's mask buffer, about
// 9/8 of the input length. Useful for cache accounting.
func (x *Index) MaskBytes() int { return x.ix.MaskBytes() }

// Acquire takes an additional reference on the index's mask buffer, for
// handing the index to another goroutine with its own lifetime. Every
// Acquire must be paired with a Release.
func (x *Index) Acquire() { x.ix.Acquire() }

// Release drops one reference; the last one recycles the mask buffer.
// Using the index after the final Release is a programming error.
func (x *Index) Release() { x.ix.Release() }
