package stream

import (
	"math/rand"
	"testing"

	"jsonski/internal/bits"
)

// randJSONish produces JSON-flavored byte soup — quotes, escapes,
// structural characters, whitespace — that exercises every mask,
// including unbalanced and mid-string word boundaries.
func randJSONish(rng *rand.Rand, n int) []byte {
	const alphabet = `{}[],:"\ ` + "\t\n" + `abc01.e-"\\"`
	out := make([]byte, n)
	for i := range out {
		out[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return out
}

// TestIndexedMasksMatchLazy is the core oracle: a stream borrowing a
// prebuilt index must serve bit-identical masks to a lazy stream over
// the same buffer, for every word and every mask kind.
func TestIndexedMasksMatchLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sizes := []int{1, 7, 63, 64, 65, 127, 128, 200, 509, 1024}
	for trial := 0; trial < 50; trial++ {
		n := sizes[trial%len(sizes)] + rng.Intn(30)
		data := randJSONish(rng, n)
		ix := NewIndex(data)
		lazy := New(data)
		indexed := NewIndexed(ix)
		word := 0
		for {
			for m := Meta(0); m < NumMeta; m++ {
				if l, i := lazy.Mask(m), indexed.Mask(m); l != i {
					t.Fatalf("n=%d word %d meta %d: lazy %064b indexed %064b\ndata: %q",
						n, word, m, l, i, data)
				}
			}
			// The lazy pipeline zero-pads the final partial word and NUL
			// classifies as whitespace, so compare only in-bounds bits; no
			// caller reads masks past the limit.
			valid := ^uint64(0)
			if rem := len(data) - word*64; rem < 64 {
				valid = uint64(1)<<uint(rem) - 1
			}
			if l, i := lazy.WhitespaceMask()&valid, indexed.WhitespaceMask()&valid; l != i {
				t.Fatalf("n=%d word %d ws: lazy %064b indexed %064b", n, word, l, i)
			}
			if l, i := lazy.StopMaskFrom(), indexed.StopMaskFrom(); l != i {
				t.Fatalf("n=%d word %d stop: lazy %064b indexed %064b", n, word, l, i)
			}
			if l, i := lazy.AttrStopMaskFrom(), indexed.AttrStopMaskFrom(); l != i {
				t.Fatalf("n=%d word %d attrStop: lazy %064b indexed %064b", n, word, l, i)
			}
			ln, in := lazy.NextWord(), indexed.NextWord()
			if ln != in {
				t.Fatalf("n=%d word %d: NextWord lazy %v indexed %v", n, word, ln, in)
			}
			if !ln {
				break
			}
			word++
		}
		ix.Release()
	}
}

// TestIndexedWindowTruncation checks that structure past a window's end
// is invisible even when it shares the boundary word.
func TestIndexedWindowTruncation(t *testing.T) {
	data := []byte(`[11,22,33,44]`)
	ix := NewIndex(data)
	defer ix.Release()
	// Window covering only `11,22` (positions 1..6).
	s := NewIndexedWindow(ix, 1, 6)
	if s.Len() != 6 || s.Pos() != 1 {
		t.Fatalf("window len=%d pos=%d", s.Len(), s.Pos())
	}
	if p := s.NextMeta(Comma); p != 3 {
		t.Fatalf("first comma at %d, want 3", p)
	}
	s.SetPos(4)
	if p := s.NextMeta(Comma); p != -1 {
		t.Fatalf("comma past window end leaked through: %d", p)
	}
	// The ']' at 12 is outside the window too.
	s2 := NewIndexedWindow(ix, 1, 6)
	if p := s2.NextMeta(RBracket); p != -1 {
		t.Fatalf("']' past window end leaked through: %d", p)
	}
}

// TestIndexedWindowAbsolutePositions checks that a window starting
// mid-buffer reports absolute positions and reads the right bytes.
func TestIndexedWindowAbsolutePositions(t *testing.T) {
	data := []byte(`[ {"k":"v"} , {"key":"second"} ]`)
	ix := NewIndex(data)
	defer ix.Release()
	lo := 14 // the second element's '{'
	s := NewIndexedWindow(ix, lo, 30)
	b, ok := s.SkipWS()
	if !ok || b != '{' {
		t.Fatalf("SkipWS = %q, %v at %d", b, ok, s.Pos())
	}
	if s.Pos() != lo {
		t.Fatalf("pos = %d, want %d", s.Pos(), lo)
	}
	s.Advance(1)
	if _, ok := s.SkipWS(); !ok {
		t.Fatal("EOF before key")
	}
	key, err := s.ReadString()
	if err != nil || string(key) != "key" {
		t.Fatalf("key = %q, %v", key, err)
	}
	if err := s.Expect(':'); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.SkipWS(); !ok {
		t.Fatal("EOF before value")
	}
	val, err := s.ReadString()
	if err != nil || string(val) != "second" {
		t.Fatalf("val = %q, %v", val, err)
	}
}

// TestResetIndexedReloadsEarlierWord is the backward-seek regression
// test: the cursor itself is forward-only (SetPos backwards panics), so
// rewinding happens through Reset*, which must reload the cached word
// even though the new base is *behind* the old one — a stale-word bug
// here shows up as masks from the far end of the buffer.
func TestResetIndexedReloadsEarlierWord(t *testing.T) {
	// Three words: commas only in word 0, a lone '}' only in word 2.
	data := make([]byte, 192)
	for i := range data {
		data[i] = 'x'
	}
	data[3], data[9] = ',', ','
	data[130] = '}'
	ix := NewIndex(data)
	defer ix.Release()

	s := NewIndexed(ix)
	if p := s.NextMeta(RBrace); p != 130 {
		t.Fatalf("'}' at %d, want 130", p)
	}
	if s.WordBase() != 128 {
		t.Fatalf("wordBase = %d, want 128", s.WordBase())
	}
	// Rewind to the start: word 0's masks must come back.
	s.ResetIndexed(ix)
	if s.WordBase() != 0 {
		t.Fatalf("after reset wordBase = %d, want 0", s.WordBase())
	}
	if p := s.NextMeta(Comma); p != 3 {
		t.Fatalf("after reset first comma at %d, want 3", p)
	}
	// Rewind into a mid-buffer window behind the current word.
	s.SetPos(180)
	s.ResetIndexedWindow(ix, 5, 64)
	if p := s.NextMeta(Comma); p != 9 {
		t.Fatalf("window rewind comma at %d, want 9", p)
	}

	// Switching back to lazy mode must also rewind and drop the index.
	s.Reset(data)
	if p := s.NextMeta(Comma); p != 3 {
		t.Fatalf("lazy reset comma at %d, want 3", p)
	}
	if p := s.NextMeta(RBrace); p != 130 {
		t.Fatalf("lazy reset '}' at %d, want 130", p)
	}
}

// TestResetIndexedClearsCarries checks that no string/escape state
// leaks across resets in either direction: buffer A ends inside an open
// string, buffer B must start outside one.
func TestResetIndexedClearsCarries(t *testing.T) {
	openString := []byte(`{"unterminated `)
	clean := []byte(`{"a":1}`)
	ixClean := NewIndex(clean)
	defer ixClean.Release()

	s := New(openString)
	s.SetPos(len(openString)) // drag the carries through the open string
	s.ResetIndexed(ixClean)
	if s.InString() {
		t.Fatal("string carry leaked through ResetIndexed")
	}
	if p := s.NextMeta(Colon); p != 4 {
		t.Fatalf("colon at %d, want 4", p)
	}

	ixOpen := NewIndex(openString)
	s.ResetIndexed(ixOpen)
	s.SetPos(len(openString))
	ixOpen.Release()
	s.Reset(clean)
	if s.InString() {
		t.Fatal("string carry leaked through Reset after indexed run")
	}
	if p := s.NextMeta(Colon); p != 4 {
		t.Fatalf("colon at %d, want 4", p)
	}
}

// TestIndexedWindowClamping checks constructor bounds handling.
func TestIndexedWindowClamping(t *testing.T) {
	data := []byte(`[1,2]`)
	ix := NewIndex(data)
	defer ix.Release()
	s := NewIndexedWindow(ix, 2, 99)
	if s.Len() != len(data) {
		t.Fatalf("hi clamp: Len = %d, want %d", s.Len(), len(data))
	}
	s = NewIndexedWindow(ix, 9, 4)
	if !s.EOF() {
		t.Fatal("lo > hi should be an empty, EOF window")
	}
}

// TestIndexRefcount checks Acquire/Release pairing: the final Release
// recycles the buffer, an extra one panics.
func TestIndexRefcount(t *testing.T) {
	data := []byte(`[true]`)
	ix := NewIndex(data)
	ix.Acquire()
	ix.Release()
	if ix.Data() == nil {
		t.Fatal("index freed while a reference remained")
	}
	ix.Release()
	if ix.Data() != nil {
		t.Fatal("final release should drop the buffer reference")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("release past zero should panic")
		}
	}()
	ix.Release()
}

// TestIndexLeakDetection deliberately leaks a borrowed index: a second
// holder Acquires and never pairs it while the creator departs. The
// refcount accounting must make the leak observable — the count stays
// pinned above zero and the mask buffer is withheld from the pool —
// rather than recycling a buffer the borrower can still read. (The lint
// suite's poolpair analyzer exists to keep this scenario out of
// non-test code.)
func TestIndexLeakDetection(t *testing.T) {
	data := []byte(`{"a":[1,2,3]}`)
	ix := NewIndex(data)
	ix.Acquire() // the borrow that never gets its Release

	ix.Release() // creator's reference
	if got := ix.refs.Load(); got != 1 {
		t.Fatalf("refs = %d after creator release, want 1: the leaked borrow must stay visible", got)
	}
	if ix.Data() == nil || ix.rows == nil {
		t.Fatal("mask buffer recycled while a borrowed reference remained")
	}
	// The leaking borrower can still stream safely: masks intact.
	row := ix.row(0)
	if row[idxLBrace] == 0 || row[idxRBrace] == 0 {
		t.Fatal("leaked index lost its structural masks")
	}

	// A late matching Release still reclaims everything.
	ix.Release()
	if got := ix.refs.Load(); got != 0 {
		t.Fatalf("refs = %d after final release, want 0", got)
	}
	if ix.rows != nil {
		t.Fatal("final release must return the mask buffer to the pool")
	}
}

// TestIndexWordAccounting sanity-checks the size accessors used by the
// cache budget.
func TestIndexWordAccounting(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		data := make([]byte, n)
		ix := NewIndex(data)
		wantWords := (n + bits.WordSize - 1) / bits.WordSize
		if ix.Words() != wantWords || ix.Len() != n {
			t.Fatalf("n=%d: Words=%d Len=%d", n, ix.Words(), ix.Len())
		}
		if ix.MaskBytes() != wantWords*idxStride*8 {
			t.Fatalf("n=%d: MaskBytes=%d", n, ix.MaskBytes())
		}
		ix.Release()
	}
}
