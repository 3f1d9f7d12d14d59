package stream

// This file implements the structural index: an explicit stage-1 over a
// JSON buffer in which every per-64-byte-word mask the streaming cursor
// would otherwise resolve lazily — in-string bits, unescaped quotes, the
// six structural metacharacters, whitespace — is materialized once so
// any number of streams (queries, query-set members, parallel shards)
// can borrow it without redoing the classification or the sequential
// string-carry fold. This is the simdjson/Pison two-stage amortization
// applied to the JSONSki cursor: build once per hot document, stream
// many times.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"jsonski/internal/bits"
)

// Row layout of the index: idxStride uint64s per 64-byte input word.
// Metacharacter rows are stored string-filtered (pseudo-metacharacters
// inside strings already removed), exactly the values Stream.Mask serves.
const (
	idxInStr = iota // in-string mask (opening quote in, closing out)
	idxQuote        // unescaped quotes
	idxWS           // whitespace (raw, not string-filtered)
	idxLBrace
	idxRBrace
	idxLBracket
	idxRBracket
	idxColon
	idxComma
	idxStride
)

// RowStride is the number of uint64 mask rows per 64-byte input word —
// the unit of the on-disk serialization (internal/store). A change here
// is a file-format change and must bump the store's format version.
const RowStride = idxStride

// metaRow maps a Meta to its row slot.
var metaRow = [NumMeta]int{
	LBrace:   idxLBrace,
	RBrace:   idxRBrace,
	LBracket: idxLBracket,
	RBracket: idxRBracket,
	Colon:    idxColon,
	Comma:    idxComma,
	Quote:    idxQuote,
}

// rowPool recycles index mask buffers so steady-state serving builds
// indexes without allocating. Buffers are variable-capacity; Get may
// return one too small, in which case a fresh slice is allocated and
// the small one is dropped on the floor for the GC.
var rowPool = sync.Pool{}

// Index is the materialized structural index of one input buffer.
//
// An Index is immutable after construction and safe for concurrent use
// by any number of borrowing streams. Its mask buffer is refcounted:
// the creator holds one reference, every additional concurrent holder
// takes its own via Acquire, and the buffer returns to the pool when
// the last Release lands — so an LRU can evict an index that readers
// are still streaming over without corrupting them.
type Index struct {
	data  []byte
	words int
	rows  []uint64
	refs  atomic.Int32

	// external marks an index whose rows are owned elsewhere (an mmap'ed
	// file, a decoded snapshot): Release must never return them to
	// rowPool, because the pool would hand borrowed — possibly unmapped —
	// memory to a future NewIndex. onRelease, when set, runs after the
	// final Release instead (typically dropping a mapping reference).
	external  bool
	onRelease func()
}

// NewIndex builds the structural index of data in one pass. The buffer
// is referenced, not copied; it must not be mutated while the index is
// alive. Release the index when done to recycle its mask buffer.
func NewIndex(data []byte) *Index {
	words := (len(data) + bits.WordSize - 1) / bits.WordSize
	need := words * idxStride
	var rows []uint64
	if v := rowPool.Get(); v != nil {
		if b := *(v.(*[]uint64)); cap(b) >= need {
			rows = b[:need]
		} else {
			// Too small for this document: return it for a smaller one
			// instead of dropping it on the floor.
			rowPool.Put(v)
		}
	}
	if rows == nil {
		rows = make([]uint64, need)
	}

	var (
		blk bits.Block
		ec  bits.EscapeCarry
		sc  bits.StringCarry
	)
	for w := 0; w < words; w++ {
		base := w * bits.WordSize
		end := base + bits.WordSize
		if end > len(data) {
			end = len(data)
		}
		blk.Load(data[base:end])
		quotes, backslash := blk.QuoteAndBackslashMasks()
		quotes &^= ec.Escaped(backslash)
		inStr := sc.InStringMask(quotes)
		lb, rb, lk, rk, co, cm, ws := blk.ClassifyStructural()
		row := rows[w*idxStride : w*idxStride+idxStride]
		row[idxInStr] = inStr
		row[idxQuote] = quotes
		row[idxWS] = ws
		row[idxLBrace] = lb &^ inStr
		row[idxRBrace] = rb &^ inStr
		row[idxLBracket] = lk &^ inStr
		row[idxRBracket] = rk &^ inStr
		row[idxColon] = co &^ inStr
		row[idxComma] = cm &^ inStr
	}

	ix := &Index{data: data, words: words, rows: rows}
	ix.refs.Store(1)
	return ix
}

// NewMappedIndex wraps already-materialized mask rows owned by the
// caller — typically a memory-mapped serialization of an index — into
// an Index borrowing streams can use exactly like a built one. rows
// must hold RowStride uint64s per 64-byte word of data, in NewIndex's
// layout; len(rows) is validated against len(data). The rows are
// treated as immutable and are never returned to the internal pool;
// onRelease, if non-nil, runs once after the final Release (use it to
// unpin the mapping).
func NewMappedIndex(data []byte, rows []uint64, onRelease func()) (*Index, error) {
	words := (len(data) + bits.WordSize - 1) / bits.WordSize
	if len(rows) != words*idxStride {
		return nil, fmt.Errorf("stream: mapped index geometry mismatch: %d rows for %d words (want %d)",
			len(rows), words, words*idxStride)
	}
	ix := &Index{data: data, words: words, rows: rows, external: true, onRelease: onRelease}
	ix.refs.Store(1)
	return ix, nil
}

// Mapped reports whether the index borrows externally owned rows (see
// NewMappedIndex). A mapped index never touches the mask-buffer pool.
func (ix *Index) Mapped() bool { return ix.external }

// Rows exposes the raw mask-row buffer (words × RowStride uint64s, one
// strided row per 64-byte input word) for serialization. The buffer is
// READ-ONLY: it may be shared by concurrent borrowing streams or backed
// by a read-only mapping, and the mapownership analyzer flags any write
// through it.
func (ix *Index) Rows() []uint64 { return ix.rows }

// Data returns the indexed buffer.
func (ix *Index) Data() []byte { return ix.data }

// Len returns the indexed buffer's length in bytes.
func (ix *Index) Len() int { return len(ix.data) }

// Words returns the number of 64-byte words covered.
func (ix *Index) Words() int { return ix.words }

// MaskBytes returns the memory held by the mask buffer, for cache
// accounting.
func (ix *Index) MaskBytes() int { return ix.words * idxStride * 8 }

// row returns the mask row of word w. w must be < ix.words.
func (ix *Index) row(w int) []uint64 {
	return ix.rows[w*idxStride : w*idxStride+idxStride]
}

// Acquire takes an additional reference. Every Acquire must be paired
// with a Release.
func (ix *Index) Acquire() { ix.refs.Add(1) }

// Release drops one reference; the last one returns the mask buffer to
// the pool. Using the index (or any stream borrowing it) after the
// final Release is a programming error.
func (ix *Index) Release() {
	n := ix.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic(fmt.Sprintf("stream: Index released %d more times than acquired", -n))
	}
	rows := ix.rows
	ix.rows = nil
	ix.data = nil
	if ix.external {
		// Externally owned rows (a mapping, a decoded snapshot) must not
		// reach the pool; hand control back to the owner instead.
		if ix.onRelease != nil {
			ix.onRelease()
		}
		return
	}
	if rows != nil {
		rows = rows[:0]
		rowPool.Put(&rows)
	}
}
