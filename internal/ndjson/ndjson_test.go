package ndjson

import (
	"io"
	"slices"
	"strings"
	"testing"

	"jsonski/internal/ndjson/ndjsontest"
)

// frame reads r to its end through Next and returns the records in order
// and the error that ended the stream. It fails t unless every batch
// holds records, First counts records across batches, and every batch
// but the last ends at a newline.
func frame(t *testing.T, r io.Reader) ([]string, error) {
	t.Helper()
	rd := NewReader(r)
	var (
		b       Batch
		recs    []string
		partial bool // the last batch did not end at a newline
	)
	for {
		err := rd.Next(&b)
		if err != nil {
			if len(b.Recs) != 0 {
				t.Fatalf("Next returned %d records with %v", len(b.Recs), err)
			}
			return recs, err
		}
		if partial {
			t.Fatalf("a batch follows one that does not end at a newline")
		}
		if len(b.Recs) == 0 || b.First != len(recs) {
			t.Fatalf("batch of %d records at %d after %d records", len(b.Recs), b.First, len(recs))
		}
		recs = append(recs, strs(b.Recs)...)
		partial = b.Data[len(b.Data)-1] != '\n'
	}
}

func strs(recs [][]byte) []string {
	var s []string
	for _, rec := range recs {
		s = append(s, string(rec))
	}
	return s
}

func TestReaderCases(t *testing.T) {
	for _, tc := range ndjsontest.Cases() {
		t.Run(tc.Name, func(t *testing.T) {
			recs, err := frame(t, tc.Reader())
			if want := tc.Err; (want == nil && err != io.EOF) || (want != nil && err != want) {
				t.Fatalf("Next ended with %v, want %v", err, want)
			}
			if !slices.Equal(recs, tc.Recs) {
				t.Fatalf("records:\n%.300q\nwant:\n%.300q", recs, tc.Recs)
			}
			if split := strs(Split(nil, []byte(strings.Join(tc.Pieces, "")))); !slices.Equal(split, tc.Recs) {
				t.Fatalf("Split cut:\n%.300q\nwant:\n%.300q", split, tc.Recs)
			}
		})
	}
}

// cutReader hands data out in reads of the lengths cuts gives, cycling
// through them: each byte is a read of 1 to 256 bytes.
type cutReader struct {
	data, cuts []byte
	i          int
}

func (c *cutReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := len(c.data)
	if len(c.cuts) > 0 {
		n = min(n, int(c.cuts[c.i%len(c.cuts)])+1)
		c.i++
	}
	n = copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// FuzzNDJSONFraming cuts random bytes into random reads: the records
// Next frames must be Split's records of the whole input, with the batch
// invariants frame checks.
func FuzzNDJSONFraming(f *testing.F) {
	for _, tc := range ndjsontest.Cases() {
		if in := strings.Join(tc.Pieces, ""); len(in) < 4<<10 {
			f.Add([]byte(in), []byte{0, 7, 63})
		}
	}
	f.Add([]byte("\xc2\x85{\"a\":1}\n{\"a\":2} \n\xc2\xa0\n\v\f\r\n"), []byte{2})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		recs, err := frame(t, &cutReader{data: data, cuts: cuts})
		if err != io.EOF {
			t.Fatalf("Next ended with %v, want io.EOF", err)
		}
		if want := strs(Split(nil, data)); !slices.Equal(recs, want) {
			t.Fatalf("Next framed %q, Split %q", recs, want)
		}
	})
}
