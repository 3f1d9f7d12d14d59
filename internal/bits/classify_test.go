package bits

import (
	"math/rand"
	"testing"
)

// refMasks is the byte-at-a-time oracle for Classify: b is padded with
// 0x00 to 64 bytes, as Classify pads it.
func refMasks(b []byte) Masks {
	var buf [WordSize]byte
	copy(buf[:], b)
	var m Masks
	for i, c := range buf {
		bit := uint64(1) << uint(i)
		switch c {
		case '"':
			m.Quote |= bit
		case '\\':
			m.Backslash |= bit
		case '{':
			m.LBrace |= bit
		case '}':
			m.RBrace |= bit
		case '[':
			m.LBracket |= bit
		case ']':
			m.RBracket |= bit
		case ':':
			m.Colon |= bit
		case ',':
			m.Comma |= bit
		}
		if c <= 0x20 {
			m.WS |= bit
		}
	}
	return m
}

// classifyAlphabet biases random blocks toward every class byte and the
// edges of the whitespace compare (0x20/0x21, 0x7f/0x80, 0xff).
const classifyAlphabet = "\"\\{}[]:, \t\n\r\x00\x01\x1f\x20\x21\x7f\x80\xa0\xdc\xfbab0"

func randomBlock(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		if r.Intn(4) == 0 {
			b[i] = byte(r.Intn(256))
		} else {
			b[i] = classifyAlphabet[r.Intn(len(classifyAlphabet))]
		}
	}
	return b
}

func TestClassifyMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		b := randomBlock(r, r.Intn(WordSize+8))
		var got Masks
		Classify(&got, b)
		if want := refMasks(b); got != want {
			t.Fatalf("Classify(%q):\n got %+v\nwant %+v", b, got, want)
		}
	}
}

// TestClassifyHalvesAgree compares the vector and SWAR halves directly
// on random blocks of every length from 0 to 64.
func TestClassifyHalvesAgree(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 on this CPU: Classify runs the SWAR half only")
	}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200000; i++ {
		checkHalves(t, randomBlock(r, r.Intn(WordSize+1)))
	}
}

// checkHalves classifies b through both halves and through Classify
// and fails unless all three agree bit for bit.
func checkHalves(t *testing.T, b []byte) {
	t.Helper()
	var buf [WordSize]byte
	copy(buf[:], b)
	var vec, swar, got Masks
	classifyAVX2(&vec, &buf)
	classifySWAR(&swar, &buf)
	Classify(&got, b)
	if vec != swar || got != swar {
		t.Fatalf("block %q:\n   avx2 %+v\n   swar %+v\nClassify %+v", b, vec, swar, got)
	}
}

// FuzzClassify checks every 64-byte block of the input, and its tail,
// for bit-identical masks from the vector and SWAR halves.
func FuzzClassify(f *testing.F) {
	if !hasAVX2 {
		f.Skip("no AVX2 on this CPU: Classify runs the SWAR half only")
	}
	f.Add([]byte(`{"a":[1,2,{"b":"x\"y"}],"c":"\\\\"}`))
	f.Add([]byte("\x00\x1f\x20\x21\x7f\x80\xff \t\r\n"))
	f.Add(make([]byte, 130))
	f.Fuzz(func(t *testing.T, data []byte) {
		for off := 0; off < len(data); off += WordSize {
			checkHalves(t, data[off:])
		}
		checkHalves(t, nil)
	})
}

func TestClassifyDoesNotAllocate(t *testing.T) {
	b := []byte(`{"a":1}`)
	var m Masks
	if n := testing.AllocsPerRun(100, func() { Classify(&m, b) }); n != 0 {
		t.Fatalf("Classify allocates %v times per call", n)
	}
}
