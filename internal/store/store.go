package store

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"jsonski/internal/stream"
)

// zeroPage backs the inter-section padding writes.
var zeroPage [pageSize]byte

// Write serializes ix — document bytes, mask rows, and an optional
// NDJSON record table — to path atomically: the bytes go to a temp file
// in the same directory, are fsynced, and are renamed into place, so a
// crash mid-write leaves either the old file or none, never a torn one
// (and a torn rename target still fails Open's checksums). The sections
// stream in after the header page, which holds their checksum and is
// written last, so the rows reach the file uncopied. spans may be nil.
func Write(path string, ix *stream.Index, spans []Span) error {
	data := ix.Data()
	dataLen := int64(len(data))
	if err := validateSpans(spans, dataLen); err != nil {
		return err
	}
	h := header{
		hash:      ContentHash(data),
		dataLen:   dataLen,
		rowStride: stream.RowStride,
		nRecords:  int64(len(spans)),
		dataOff:   pageSize,
	}
	if len(spans) > 0 {
		h.flags |= flagRecords
	}
	h.words, h.rowsOff, h.recsOff, h.fileSize = layout(h.dataLen, h.nRecords)

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Seek(pageSize, io.SeekStart); err != nil {
		return err
	}
	w := &crcWriter{f: tmp}
	// Sections with their padding, in file order after the header page.
	if err := writeAll(w, data, pad(pageSize+dataLen, h.rowsOff)); err != nil {
		return err
	}
	if err := ix.WriteRows(w); err != nil {
		return err
	}
	if len(spans) > 0 {
		rowsEnd := h.rowsOff + h.words*stream.RowStride*8
		if err := writeAll(w, pad(rowsEnd, h.recsOff), encodeSpans(spans)); err != nil {
			return err
		}
	}
	h.sumPayload = w.sum
	if _, err := tmp.WriteAt(h.encode(), 0); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		tmp = nil
		os.Remove(name)
		return err
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	// Make the rename durable. Directory fsync is best-effort: not every
	// platform or filesystem supports it, and the data file itself is
	// already synced.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// crcWriter writes to f, folding what it writes into a CRC-32C. It
// stands in for a hash.Hash32 behind io.MultiWriter, which costs the
// jsonski binary size and resident pages (DESIGN §5e).
type crcWriter struct {
	f   *os.File
	sum uint32
}

func (w *crcWriter) Write(b []byte) (int, error) {
	w.sum = crc32.Update(w.sum, castagnoli(), b)
	return w.f.Write(b)
}

// writeAll writes each section to w in order.
func writeAll(w io.Writer, sections ...[]byte) error {
	for _, b := range sections {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// pad returns the zero padding between file offsets from and to.
func pad(from, to int64) []byte {
	return zeroPage[:to-from]
}

// File is an open, fully validated serialized index. Its document bytes
// and mask rows alias the underlying mapping; the mapping is refcounted
// and survives until both the File is closed and every Index it handed
// out has been released, so catalog eviction can unlink and close a
// file readers are still streaming over.
type File struct {
	hdr   header
	m     *mapping
	data  []byte
	rows  stream.Rows
	spans []Span
	pins  atomic.Int32
}

// Open maps (or, off linux/darwin, reads) the file at path and
// validates everything — magic, version, row stride, geometry, the
// header checksum, the payload checksum over every section byte, the
// record table, and the stored content hash against the actual document
// bytes. Any failure returns an error and no File: a torn, truncated,
// bit-flipped, or stale sidecar can never serve masks.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < pageSize {
		return nil, fmt.Errorf("store: %s: file too short (%d bytes) for a header page", path, size)
	}
	m, err := mapFile(f, size)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			m.release()
		}
	}()

	hdr, err := decodeHeader(m.b[:pageSize], size)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if got := crc32.Checksum(m.b[pageSize:], castagnoli()); got != hdr.sumPayload {
		return nil, fmt.Errorf("store: %s: payload checksum mismatch (stored %08x, computed %08x)",
			path, hdr.sumPayload, got)
	}
	data := m.b[hdr.dataOff : hdr.dataOff+hdr.dataLen : hdr.dataOff+hdr.dataLen]
	if got := ContentHash(data); got != hdr.hash {
		return nil, fmt.Errorf("store: %s: content hash mismatch (stored %016x, computed %016x)",
			path, hdr.hash, got)
	}
	rowsLen := hdr.words * stream.RowStride * 8
	rows := m.b[hdr.rowsOff : hdr.rowsOff+rowsLen : hdr.rowsOff+rowsLen]
	var spans []Span
	if hdr.nRecords > 0 {
		spans, err = decodeSpans(m.b[hdr.recsOff:], hdr.nRecords, hdr.dataLen)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	ok = true
	file := &File{hdr: hdr, m: m, data: data, rows: stream.ViewRows(rows), spans: spans}
	file.pins.Store(1) // the File's own pin; dropped by Close
	return file, nil
}

// Hash returns the stored (and verified) content hash of the document.
func (f *File) Hash() uint64 { return f.hdr.hash }

// Data returns the document bytes. They alias the mapping: valid only
// while the File (or an Index borrowed from it) is alive.
func (f *File) Data() []byte { return f.data }

// Len returns the document length in bytes.
func (f *File) Len() int { return int(f.hdr.dataLen) }

// MaskBytes returns the size of the mask-row section.
func (f *File) MaskBytes() int { return int(f.hdr.words * stream.RowStride * 8) }

// SizeBytes returns the on-disk file size.
func (f *File) SizeBytes() int64 { return f.hdr.fileSize }

// Records returns the number of NDJSON record spans (0 for a
// single-document index).
func (f *File) Records() int { return len(f.spans) }

// Span returns record i's trimmed byte range.
func (f *File) Span(i int) Span { return f.spans[i] }

// Spans returns the record table. Read-only.
func (f *File) Spans() []Span { return f.spans }

// Index returns a stream.Index borrowing the file's mapped bitmaps (on
// big-endian hosts, the copy Open decoded), with its own reference
// pinning the mapping; release it like any other index. The returned
// index reports Mapped() == true and its rows never touch the in-memory
// mask pool.
func (f *File) Index() *stream.Index {
	f.pins.Add(1)
	ix, err := stream.NewMappedIndex(f.data, f.rows, f.unpin)
	if err != nil {
		// Geometry was validated at Open; a mismatch here is a bug, not
		// a data error.
		panic(err)
	}
	return ix
}

// unpin drops one mapping reference, releasing the mapping with the
// last one.
func (f *File) unpin() {
	if f.pins.Add(-1) == 0 {
		f.m.release()
		f.data, f.rows, f.spans = nil, stream.Rows{}, nil
	}
}

// Close drops the File's own pin. Indexes already borrowed stay valid
// until their final Release; the mapping is freed when the last holder
// lets go. Close is not idempotent — like Release, calling it twice is
// a programming error.
func (f *File) Close() { f.unpin() }
