// Package store is the persistent index store: a versioned, checksummed
// on-disk serialization of stream.Index that loads by mmap on
// linux/darwin (a portable read-into-pool fallback everywhere else),
// plus a content-hash-keyed catalog of such files with atomic
// write-rename, stale-entry invalidation, and byte-budget eviction.
//
// The point is ROADMAP item 4 — index once, query many, at corpus
// scale: the classification + string-carry fold that dominates an index
// build (the stage-1 of "Parsing Gigabytes of JSON per Second") is paid
// once per document ever, not once per process lifetime, and a restart
// or a fresh replica warms itself from the sidecar files instead of
// rebuilding.
//
// # File format (.jski, version 1)
//
// All integers are little-endian uint64 unless noted. Sections start on
// 4096-byte page boundaries so the bitmap rows of a mapped file are
// 8-byte aligned and can be reinterpreted in place.
//
//	offset  size  field
//	0       4     magic "JSKI"
//	4       4     version (uint32, = 1)
//	8       8     flags (bit 0: record table present; others must be 0)
//	16      8     content hash of the document bytes (ContentHash)
//	24      8     dataLen — document length in bytes
//	32      8     words — ceil(dataLen/64); redundant, validated
//	40      8     rowStride — uint64 mask rows per word (= stream.RowStride)
//	48      8     nRecords — record-span count (0 without a table)
//	56      8     dataOff — document section offset (= 4096)
//	64      8     rowsOff — bitmap section offset (page-aligned)
//	72      8     recsOff — record-table offset (page-aligned; 0 if none)
//	80      8     fileSize — total file length; the file must be exactly
//	              this long
//	88      4     payload checksum (uint32): CRC-32C of file[4096:fileSize]
//	92      4     header checksum (uint32): CRC-32C of the whole header
//	              page with this field zeroed
//	96      —     zero padding to 4096 (covered by the header checksum)
//
//	dataOff  dataLen                the document bytes, zero-padded to a page
//	rowsOff  words*rowStride*8     the mask rows, NewIndex's layout, LE,
//	                               zero-padded to a page when a record
//	                               table follows
//	recsOff  nRecords*16           (start,end) byte-span pairs, trimmed of
//	                               surrounding whitespace, strictly
//	                               monotonic, within [0,dataLen]
//
// Everything after the header page is covered by the payload checksum
// and the header page is covered by its own checksum, so any byte flip,
// truncation (the size check), or extension anywhere in the file fails
// the load; a loader never serves corrupt masks. The header checksum is
// verified before any header field is trusted.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"jsonski/internal/stream"
)

const (
	magic       = "JSKI"
	version     = 1
	pageSize    = 4096
	headerLen   = 96 // used bytes; the rest of the page is zero
	offPayload  = 88 // payload-checksum field offset
	offHeader   = 92 // header-checksum field offset
	flagRecords = 1 << 0
	flagsKnown  = flagRecords

	// Ext is the sidecar file extension, including the dot.
	Ext = ".jski"
)

// castagnoli returns the CRC-32C table, hardware accelerated on
// amd64/arm64. It is built on first use: building it costs about a
// quarter of a millisecond, which every jsonski start would pay at
// package init though most runs never touch a sidecar.
var castagnoli = sync.OnceValue(func() *crc32.Table {
	return crc32.MakeTable(crc32.Castagnoli)
})

// Span is one NDJSON record's trimmed byte range [Start, End) within
// the document buffer.
type Span struct {
	Start int64
	End   int64
}

// header is the decoded header page.
type header struct {
	flags      uint64
	hash       uint64
	dataLen    int64
	words      int64
	rowStride  int64
	nRecords   int64
	dataOff    int64
	rowsOff    int64
	recsOff    int64
	fileSize   int64
	sumPayload uint32
	sumHeader  uint32
}

// pageAlign rounds n up to the next page boundary.
func pageAlign(n int64) int64 {
	return (n + pageSize - 1) &^ (pageSize - 1)
}

// layout computes the section offsets for a document of dataLen bytes
// with nRecords record spans.
func layout(dataLen, nRecords int64) (words, rowsOff, recsOff, fileSize int64) {
	words = (dataLen + 63) / 64
	rowsOff = pageAlign(pageSize + dataLen)
	rowsEnd := rowsOff + words*stream.RowStride*8
	if nRecords > 0 {
		recsOff = pageAlign(rowsEnd)
		fileSize = recsOff + nRecords*16
	} else {
		recsOff = 0
		fileSize = rowsEnd
	}
	return
}

// encode renders the header page. Both checksum fields must already be
// set; sumHeader is computed by encodeWithSums.
func (h *header) encode() []byte {
	page := make([]byte, pageSize)
	copy(page, magic)
	binary.LittleEndian.PutUint32(page[4:], version)
	binary.LittleEndian.PutUint64(page[8:], h.flags)
	binary.LittleEndian.PutUint64(page[16:], h.hash)
	binary.LittleEndian.PutUint64(page[24:], uint64(h.dataLen))
	binary.LittleEndian.PutUint64(page[32:], uint64(h.words))
	binary.LittleEndian.PutUint64(page[40:], uint64(h.rowStride))
	binary.LittleEndian.PutUint64(page[48:], uint64(h.nRecords))
	binary.LittleEndian.PutUint64(page[56:], uint64(h.dataOff))
	binary.LittleEndian.PutUint64(page[64:], uint64(h.rowsOff))
	binary.LittleEndian.PutUint64(page[72:], uint64(h.recsOff))
	binary.LittleEndian.PutUint64(page[80:], uint64(h.fileSize))
	binary.LittleEndian.PutUint32(page[offPayload:], h.sumPayload)
	h.sumHeader = headerSum(page)
	binary.LittleEndian.PutUint32(page[offHeader:], h.sumHeader)
	return page
}

// headerSum is the CRC-32C of the header page with its own checksum
// field zeroed.
func headerSum(page []byte) uint32 {
	tab := castagnoli()
	sum := crc32.Update(0, tab, page[:offHeader])
	var zero [4]byte
	sum = crc32.Update(sum, tab, zero[:])
	return crc32.Update(sum, tab, page[offHeader+4:])
}

// decodeHeader parses and validates the header page against the actual
// file size. Every geometry field is cross-checked so a forged or
// corrupted header can never index out of the mapping.
func decodeHeader(page []byte, actualSize int64) (header, error) {
	var h header
	if len(page) < pageSize {
		return h, fmt.Errorf("store: file too short for a header page (%d bytes)", len(page))
	}
	if string(page[:4]) != magic {
		return h, fmt.Errorf("store: bad magic %q", page[:4])
	}
	if v := binary.LittleEndian.Uint32(page[4:]); v != version {
		return h, fmt.Errorf("store: unsupported format version %d (want %d)", v, version)
	}
	h.sumHeader = binary.LittleEndian.Uint32(page[offHeader:])
	if got := headerSum(page[:pageSize]); got != h.sumHeader {
		return h, fmt.Errorf("store: header checksum mismatch (stored %08x, computed %08x)", h.sumHeader, got)
	}
	h.flags = binary.LittleEndian.Uint64(page[8:])
	h.hash = binary.LittleEndian.Uint64(page[16:])
	h.dataLen = int64(binary.LittleEndian.Uint64(page[24:]))
	h.words = int64(binary.LittleEndian.Uint64(page[32:]))
	h.rowStride = int64(binary.LittleEndian.Uint64(page[40:]))
	h.nRecords = int64(binary.LittleEndian.Uint64(page[48:]))
	h.dataOff = int64(binary.LittleEndian.Uint64(page[56:]))
	h.rowsOff = int64(binary.LittleEndian.Uint64(page[64:]))
	h.recsOff = int64(binary.LittleEndian.Uint64(page[72:]))
	h.fileSize = int64(binary.LittleEndian.Uint64(page[80:]))
	h.sumPayload = binary.LittleEndian.Uint32(page[offPayload:])

	if h.flags&^uint64(flagsKnown) != 0 {
		return h, fmt.Errorf("store: unknown flags %#x", h.flags)
	}
	if h.dataLen < 0 || h.nRecords < 0 {
		return h, fmt.Errorf("store: negative section size")
	}
	if h.rowStride != stream.RowStride {
		return h, fmt.Errorf("store: row stride %d does not match this build's %d", h.rowStride, stream.RowStride)
	}
	hasRecs := h.flags&flagRecords != 0
	if hasRecs != (h.nRecords > 0) {
		return h, fmt.Errorf("store: record flag and record count disagree (%d records, flags %#x)", h.nRecords, h.flags)
	}
	words, rowsOff, recsOff, fileSize := layout(h.dataLen, h.nRecords)
	if h.words != words || h.dataOff != pageSize || h.rowsOff != rowsOff ||
		h.recsOff != recsOff || h.fileSize != fileSize {
		return h, fmt.Errorf("store: header geometry inconsistent with dataLen=%d nRecords=%d", h.dataLen, h.nRecords)
	}
	if actualSize != h.fileSize {
		return h, fmt.Errorf("store: file is %d bytes, header says %d (truncated or torn write)", actualSize, h.fileSize)
	}
	return h, nil
}

// decodeSpans parses and validates the record table: spans must be
// in-bounds, ordered, and non-overlapping.
func decodeSpans(b []byte, n, dataLen int64) ([]Span, error) {
	spans := make([]Span, n)
	var prevEnd int64
	for i := range spans {
		start := int64(binary.LittleEndian.Uint64(b[i*16:]))
		end := int64(binary.LittleEndian.Uint64(b[i*16+8:]))
		if start < prevEnd || end < start || end > dataLen {
			return nil, fmt.Errorf("store: record span %d [%d,%d) out of order or out of bounds (dataLen %d)",
				i, start, end, dataLen)
		}
		spans[i] = Span{Start: start, End: end}
		prevEnd = end
	}
	return spans, nil
}

// encodeSpans renders the record table.
func encodeSpans(spans []Span) []byte {
	b := make([]byte, len(spans)*16)
	for i, s := range spans {
		binary.LittleEndian.PutUint64(b[i*16:], uint64(s.Start))
		binary.LittleEndian.PutUint64(b[i*16+8:], uint64(s.End))
	}
	return b
}

// validateSpans checks caller-supplied spans before serialization, so a
// Write can never produce a file Open would reject.
func validateSpans(spans []Span, dataLen int64) error {
	var prevEnd int64
	for i, s := range spans {
		if s.Start < prevEnd || s.End < s.Start || s.End > dataLen {
			return fmt.Errorf("store: record span %d [%d,%d) out of order or out of bounds (dataLen %d)",
				i, s.Start, s.End, dataLen)
		}
		prevEnd = s.End
	}
	return nil
}
