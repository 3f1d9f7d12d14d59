package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jsonski/internal/stream"
)

// testDoc builds a JSON document of roughly n bytes with strings that
// contain structural characters, escapes, and multi-word spans — the
// cases where a wrong mask row would change query results.
func testDoc(n int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"items":[`)
	for i := 0; b.Len() < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id":%d,"s":"br{ace]s, \"esc\" and commas,,","deep":{"a":[1,2,{"b":null}]},"t":true}`, i)
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

func writeDoc(t *testing.T, data []byte, spans []Span) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "doc"+Ext)
	ix := stream.NewIndex(data)
	defer ix.Release()
	if err := Write(path, ix, spans); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return path
}

// TestRoundTrip proves every serialized bitmap row loads back
// bit-identical to a fresh NewIndex over the same bytes, across sizes
// that cover empty, sub-word, word-boundary, and multi-page documents.
func TestRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000, 4096, 5000, 70000} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var data []byte
			if n > 0 {
				data = testDoc(n)
			}
			path := writeDoc(t, data, nil)
			f, err := Open(path)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer f.Close()
			if !bytes.Equal(f.Data(), data) {
				t.Fatalf("document bytes mismatch: got %d bytes, want %d", len(f.Data()), len(data))
			}
			if f.Hash() != ContentHash(data) {
				t.Fatalf("hash mismatch")
			}
			want := stream.NewIndex(data)
			defer want.Release()
			got := f.Index()
			defer got.Release()
			if !got.Mapped() {
				t.Fatalf("loaded index should report Mapped()")
			}
			wr, gr := rowBytes(t, want), rowBytes(t, got)
			if len(wr) != len(gr) {
				t.Fatalf("row count: got %d, want %d", len(gr)/8, len(wr)/8)
			}
			if i := diffRow(gr, wr); i >= 0 {
				t.Fatalf("row %d (word %d, mask %d) differs", i, i/stream.RowStride, i%stream.RowStride)
			}
		})
	}
}

// TestRoundTripSpans checks the NDJSON record table survives the trip
// and rejects out-of-order or out-of-bounds spans at write time.
func TestRoundTripSpans(t *testing.T) {
	data := []byte("{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n")
	spans := []Span{{0, 7}, {8, 15}, {16, 23}}
	path := writeDoc(t, data, spans)
	f, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()
	if f.Records() != len(spans) {
		t.Fatalf("Records: got %d, want %d", f.Records(), len(spans))
	}
	for i, want := range spans {
		if got := f.Span(i); got != want {
			t.Fatalf("span %d: got %+v, want %+v", i, got, want)
		}
		if string(data[want.Start:want.End]) != string(f.Data()[want.Start:want.End]) {
			t.Fatalf("span %d window mismatch", i)
		}
	}

	ix := stream.NewIndex(data)
	defer ix.Release()
	bad := [][]Span{
		{{5, 3}},          // end < start
		{{0, 7}, {6, 10}}, // overlap
		{{0, 100}},        // out of bounds
		{{-1, 3}},         // negative
		{{8, 15}, {0, 7}}, // out of order
	}
	for i, sp := range bad {
		if err := Write(filepath.Join(t.TempDir(), "bad"+Ext), ix, sp); err == nil {
			t.Fatalf("bad span set %d accepted", i)
		}
	}
}

// TestOpenRejectsDamage corrupts a valid sidecar in targeted ways and
// requires Open to fail every time — never to return wrong masks.
func TestOpenRejectsDamage(t *testing.T) {
	data := testDoc(9000)
	spans := []Span{{0, 100}, {101, 500}}
	path := writeDoc(t, data, spans)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	reopen := func(t *testing.T, b []byte) error {
		t.Helper()
		p := filepath.Join(t.TempDir(), "mut"+Ext)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := Open(p)
		if err == nil {
			f.Close()
		}
		return err
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated header", func(b []byte) []byte { return b[:100] }},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-1] }},
		{"truncated to header only", func(b []byte) []byte { return b[:pageSize] }},
		{"extended", func(b []byte) []byte { return append(b, 0) }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"bad version", func(b []byte) []byte { b[4] ^= 0xff; return b }},
		{"header bitflip", func(b []byte) []byte { b[40] ^= 1; return b }},
		{"header padding bitflip", func(b []byte) []byte { b[headerLen+10] ^= 1; return b }},
		{"data bitflip", func(b []byte) []byte { b[pageSize+5] ^= 1; return b }},
		{"rows bitflip", func(b []byte) []byte { b[len(b)-40] ^= 1; return b }},
		{"padding bitflip", func(b []byte) []byte { b[pageSize+len(data)+1] ^= 1; return b }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), orig...))
			if err := reopen(t, b); err == nil {
				t.Fatalf("damaged file (%s) opened cleanly", tc.name)
			}
		})
	}

	// The pristine copy must still open: the harness above would pass
	// trivially if reopen always failed.
	if err := reopen(t, append([]byte(nil), orig...)); err != nil {
		t.Fatalf("pristine copy failed to open: %v", err)
	}
}

// TestWriteAtomic checks a Write over an existing sidecar leaves no
// temp droppings and that a simulated torn write (partial temp file
// never renamed) does not disturb the committed file.
func TestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc"+Ext)
	data := testDoc(3000)
	ix := stream.NewIndex(data)
	defer ix.Release()
	if err := Write(path, ix, nil); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, ix, nil); err != nil { // overwrite in place
		t.Fatal(err)
	}
	// Simulate a crash mid-write: a stale temp file beside the sidecar.
	if err := os.WriteFile(path+".tmp123", []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatalf("committed file unreadable after torn neighbor: %v", err)
	}
	f.Close()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("unexpected directory contents: %v", names)
	}
	for _, n := range names {
		if n != "doc"+Ext && !strings.Contains(n, ".tmp") {
			t.Fatalf("unexpected file %q", n)
		}
	}
}

// TestFileRefcount proves the mapping outlives Close while an Index is
// outstanding, and is torn down on the final release.
func TestFileRefcount(t *testing.T) {
	data := testDoc(2000)
	path := writeDoc(t, data, nil)
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ix := f.Index()
	f.Close() // catalog-style: file dropped while a reader still streams

	// The index must still be fully usable: masks readable, data intact.
	if !bytes.Equal(ix.Data(), data) {
		t.Fatal("data unreadable after File.Close with outstanding index")
	}
	rowBytes(t, ix)
	ix.Release() // final reference: unmaps
}

// rowBytes returns ix's mask rows in their file form.
func rowBytes(t testing.TB, ix *stream.Index) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := ix.WriteRows(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// diffRow returns the first mask row (uint64 index) at which two row
// sections of equal length differ, or -1 when they are equal.
func diffRow(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i / 8
		}
	}
	return -1
}

// TestEmptyAndOpenErrors covers the non-file error paths.
func TestEmptyAndOpenErrors(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing"+Ext)); err == nil {
		t.Fatal("Open of missing file succeeded")
	}
	short := filepath.Join(t.TempDir(), "short"+Ext)
	if err := os.WriteFile(short, []byte("JSKI"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(short); err == nil {
		t.Fatal("Open of short file succeeded")
	}
}
