package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"jsonski/internal/stream"
)

// FuzzStoreRoundTrip serializes a document, applies an arbitrary
// mutation to the on-disk bytes, and requires Open to either reject the
// file or — when the mutation happens to be a no-op — produce masks
// bit-identical to a fresh build. A load may fail; it may never
// succeed with corrupt masks.
func FuzzStoreRoundTrip(f *testing.F) {
	f.Add([]byte(`{"k":[1,"a,b",{"x":null}]}`), uint32(0), byte(0))
	f.Add([]byte(`{"k":[1,"a,b",{"x":null}]}`), uint32(4096+3), byte(1))
	f.Add([]byte(`[true,false,"{\"nested\"}"]`), uint32(40), byte(0x80))
	f.Add([]byte(``), uint32(92), byte(0xff))
	f.Add([]byte(`{"long":"`+string(bytes.Repeat([]byte{'z'}, 200))+`"}`), uint32(5000), byte(2))

	f.Fuzz(func(t *testing.T, doc []byte, pos uint32, flip byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "f"+Ext)
		ix := stream.NewIndex(doc)
		err := Write(path, ix, nil)
		ix.Release()
		if err != nil {
			t.Fatalf("Write: %v", err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[int(pos)%len(raw)] ^= flip
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		got, err := Open(path)
		if err != nil {
			return // rejected: always acceptable for a mutated file
		}
		defer got.Close()
		// Open succeeded (flip==0 or a masked no-op): the result must be
		// exactly what a fresh build produces. Anything else is silent
		// corruption.
		if !bytes.Equal(got.Data(), doc) {
			t.Fatalf("accepted file serves different document")
		}
		want := stream.NewIndex(got.Data())
		defer want.Release()
		gix := got.Index()
		defer gix.Release()
		wr, gr := rowBytes(t, want), rowBytes(t, gix)
		if len(wr) != len(gr) {
			t.Fatalf("accepted file has wrong row count: %d vs %d", len(gr)/8, len(wr)/8)
		}
		if i := diffRow(gr, wr); i >= 0 {
			t.Fatalf("accepted file serves corrupt mask row %d", i)
		}
	})
}
