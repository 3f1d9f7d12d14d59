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
	"encoding/binary"
	"fmt"
	"io"
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

// RowStride is the number of uint64 mask rows per 64-byte input word, in
// the rows' file form too (WriteRows), so a change here is a file-format
// change and must bump internal/store's format version.
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
		m  bits.Masks
		ec bits.EscapeCarry
		sc bits.StringCarry
	)
	for w := 0; w < words; w++ {
		base := w * bits.WordSize
		end := base + bits.WordSize
		if end > len(data) {
			end = len(data)
		}
		bits.Classify(&m, data[base:end])
		quotes := m.Quote &^ ec.Escaped(m.Backslash)
		inStr := sc.InStringMask(quotes)
		row := rows[w*idxStride : w*idxStride+idxStride]
		row[idxInStr] = inStr
		row[idxQuote] = quotes
		row[idxWS] = m.WS
		row[idxLBrace] = m.LBrace &^ inStr
		row[idxRBrace] = m.RBrace &^ inStr
		row[idxLBracket] = m.LBracket &^ inStr
		row[idxRBracket] = m.RBracket &^ inStr
		row[idxColon] = m.Colon &^ inStr
		row[idxComma] = m.Comma &^ inStr
	}

	ix := &Index{data: data, words: words, rows: rows}
	ix.refs.Store(1)
	return ix
}

// Rows is a rows section in its file form (as WriteRows wrote it,
// typically a mapped section the caller owns), ready to back mapped
// indexes: an 8-byte-aligned section is viewed in place on
// little-endian hosts and decoded into a copy otherwise. Build it once
// per section with ViewRows; every NewMappedIndex over it shares it.
type Rows struct {
	words []uint64
	n     int // section length in bytes
}

// ViewRows prepares the rows section b for NewMappedIndex.
func ViewRows(b []byte) Rows { return Rows{words: rowsView(b), n: len(b)} }

// NewMappedIndex wraps the mask rows of data into an Index borrowing
// streams can use exactly like a built one; the section's length is
// validated against len(data). The rows are treated as immutable and
// are never returned to the pool; onRelease, if non-nil, runs once
// after the final Release (use it to unpin the mapping).
func NewMappedIndex(data []byte, rows Rows, onRelease func()) (*Index, error) {
	words := (len(data) + bits.WordSize - 1) / bits.WordSize
	if rows.n != words*idxStride*8 {
		return nil, fmt.Errorf("stream: mapped index geometry mismatch: %d row bytes for %d words (want %d)",
			rows.n, words, words*idxStride*8)
	}
	ix := &Index{data: data, words: words, rows: rows.words, external: true, onRelease: onRelease}
	ix.refs.Store(1)
	return ix, nil
}

// decodeRows copies a little-endian rows section into a fresh uint64
// slice, for big-endian hosts and misaligned sections.
func decodeRows(b []byte) []uint64 {
	rows := make([]uint64, len(b)/8)
	for i := range rows {
		rows[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return rows
}

// Mapped reports whether the index borrows externally owned rows (see
// NewMappedIndex). A mapped index never touches the mask-buffer pool.
func (ix *Index) Mapped() bool { return ix.external }

// WriteRows writes the mask rows to w in their file form, RowStride
// little-endian uint64s per 64-byte word; on little-endian hosts
// straight from the row buffer. The io.Writer contract forbids w to
// modify or retain the bytes, so the rows (shared, possibly a read-only
// mapping) stay read-only outside this package.
func (ix *Index) WriteRows(w io.Writer) error {
	_, err := w.Write(rowsBytes(ix.rows))
	return err
}

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
