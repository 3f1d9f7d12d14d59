package stream

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestMappedIndexMatchesBuilt verifies that an index wrapped around the
// file form of a built index's rows — in place, and through the decoded
// copy a misaligned section takes — serves bit-identical masks and
// writes the same rows back, and that its release path never touches
// the row pool.
func TestMappedIndexMatchesBuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 63, 64, 65, 200, 1024, 4097} {
		for _, misalign := range []int{0, 1} {
			testMappedIndex(t, randJSONish(rng, n), misalign)
		}
	}
}

func testMappedIndex(t *testing.T, data []byte, misalign int) {
	t.Helper()
	n := len(data)
	built := NewIndex(data)
	var file bytes.Buffer
	if err := built.WriteRows(&file); err != nil {
		t.Fatal(err)
	}
	// An 8-byte-aligned buffer, then the section at offset misalign.
	backing := make([]uint64, file.Len()/8+1)
	rows := rowsBytes(backing)[misalign : misalign+file.Len()]
	copy(rows, file.Bytes())
	released := false
	mapped, err := NewMappedIndex(data, ViewRows(rows), func() { released = true })
	if err != nil {
		t.Fatalf("n=%d: NewMappedIndex: %v", n, err)
	}
	var back bytes.Buffer
	if err := mapped.WriteRows(&back); err != nil || !bytes.Equal(back.Bytes(), file.Bytes()) {
		t.Fatalf("n=%d misalign=%d: mapped rows write back differently (err %v)", n, misalign, err)
	}
	if !mapped.Mapped() {
		t.Fatalf("n=%d: Mapped() = false on mapped index", n)
	}
	if built.Mapped() {
		t.Fatalf("n=%d: Mapped() = true on built index", n)
	}
	if mapped.Words() != built.Words() || mapped.MaskBytes() != built.MaskBytes() {
		t.Fatalf("n=%d: geometry mismatch", n)
	}
	ls, ms := NewIndexed(built), NewIndexed(mapped)
	for w := 0; w < built.Words(); w++ {
		for m := Meta(0); m < NumMeta; m++ {
			if a, b := ls.Mask(m), ms.Mask(m); a != b {
				t.Fatalf("n=%d word %d meta %v: built %x mapped %x", n, w, m, a, b)
			}
		}
		ls.NextWord()
		ms.NextWord()
	}
	built.Release()
	mapped.Acquire()
	mapped.Release()
	if released {
		t.Fatal("onRelease ran before final Release")
	}
	mapped.Release()
	if !released {
		t.Fatal("onRelease did not run after final Release")
	}
}

// TestMappedIndexGeometryValidation pins the row-section length check.
func TestMappedIndexGeometryValidation(t *testing.T) {
	data := []byte(`{"a":1}`)
	if _, err := NewMappedIndex(data, ViewRows(make([]byte, idxStride*8-1)), nil); err == nil {
		t.Fatal("short rows accepted")
	}
	if _, err := NewMappedIndex(data, ViewRows(make([]byte, 2*idxStride*8)), nil); err == nil {
		t.Fatal("long rows accepted")
	}
	if _, err := NewMappedIndex(data, ViewRows(make([]byte, idxStride*8)), nil); err != nil {
		t.Fatalf("exact rows rejected: %v", err)
	}
}
