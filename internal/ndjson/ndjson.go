// Package ndjson frames newline-delimited JSON: a record is a non-blank
// line, trimmed by bytes.TrimSpace. The library's readers and jsonskid
// both frame records here, so they agree on every record and record
// index.
package ndjson

import (
	"bytes"
	"io"
	"slices"
)

// ReadSize is what one read of a stream asks for, and so the size of a
// batch, bar a record longer than this, which grows its batch until the
// record ends.
const ReadSize = 64 << 10

// Batch is the complete records that one read of a stream delivered, as
// sub-slices of the bytes read.
type Batch struct {
	Data  []byte   // the bytes read, up to the last newline
	Recs  [][]byte // the records of Data, as Split cuts them
	First int      // stream-wide index of Recs[0]
}

// Reader cuts a stream into batches.
type Reader struct {
	r    io.Reader
	rest []byte // the partial record after the last batch's last newline
	n    int    // records handed out so far
	err  error  // the error that ended the stream, once read
}

// NewReader returns a Reader of the records of r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next fills b with the next batch, reusing b's buffers. It copies the
// partial record after the batch's last newline into a buffer of its
// own for the next call, so it keeps no reference into b. A batch ends
// at the last newline of what one read returned; a read that completes
// no record is followed by another into the same batch, doubling the
// buffer whenever a record fills it. So a batch never waits for input
// beyond its last complete record. At the end of the stream or at a
// read error the bytes left form the last batch, newline or not.
//
// Next returns nil with a batch of at least one record. Once every
// record is handed out it returns the error that ended the stream,
// io.EOF at its end, with an empty batch.
func (r *Reader) Next(b *Batch) error {
	for r.err == nil {
		b.Data = append(b.Data[:0], r.rest...) // holds no newline
		cut := -1
		for cut < 0 {
			if len(b.Data) == cap(b.Data) {
				b.Data = slices.Grow(b.Data, max(len(b.Data), ReadSize))
			}
			var n int
			n, r.err = r.r.Read(b.Data[len(b.Data):cap(b.Data)])
			b.Data = b.Data[:len(b.Data)+n]
			if r.err != nil {
				cut = len(b.Data)
			} else if i := bytes.LastIndexByte(b.Data[len(b.Data)-n:], '\n'); i >= 0 {
				cut = len(b.Data) - n + i + 1
			}
		}
		r.rest = append(r.rest[:0], b.Data[cut:]...)
		b.Data = b.Data[:cut]
		b.Recs, b.First = Split(b.Recs[:0], b.Data), r.n
		if r.n += len(b.Recs); len(b.Recs) > 0 {
			return nil
		}
	}
	b.Data, b.Recs = b.Data[:0], b.Recs[:0]
	return r.err
}

// Split appends the records of data to recs: its lines, trimmed by
// bytes.TrimSpace, blank ones skipped, as sub-slices of data.
func Split(recs [][]byte, data []byte) [][]byte {
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if line = bytes.TrimSpace(line); len(line) > 0 {
			recs = append(recs, line)
		}
	}
	return recs
}
