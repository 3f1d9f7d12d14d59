package stream

import (
	"bytes"
	"math/rand"
	"testing"

	"jsonski/internal/bits"
)

// swarRows builds the rows NewIndex builds, one class at a time with
// the SWAR Block methods: the reference the vector kernel is held to.
func swarRows(data []byte) []uint64 {
	words := (len(data) + bits.WordSize - 1) / bits.WordSize
	rows := make([]uint64, words*idxStride)
	var (
		blk bits.Block
		ec  bits.EscapeCarry
		sc  bits.StringCarry
	)
	for w := 0; w < words; w++ {
		base := w * bits.WordSize
		end := base + bits.WordSize
		if end > len(data) {
			end = len(data)
		}
		blk.Load(data[base:end])
		quotes := blk.EqMask('"') &^ ec.Escaped(blk.EqMask('\\'))
		inStr := sc.InStringMask(quotes)
		row := rows[w*idxStride : (w+1)*idxStride]
		row[idxInStr] = inStr
		row[idxQuote] = quotes
		row[idxWS] = blk.WhitespaceMask()
		for m := LBrace; m < Quote; m++ {
			row[metaRow[m]] = blk.EqMask(m.Byte()) &^ inStr
		}
	}
	return rows
}

// TestIndexRowsMatchSWAR checks that NewIndex, classifying with the
// vector kernel, stores rows bit-identical to a SWAR-built index. Every
// shift of the body moves its strings and backslash runs (lengths 1 to
// 6) across a word edge.
func TestIndexRowsMatchSWAR(t *testing.T) {
	if !bits.Vectorized() {
		t.Skip("no AVX2 on this CPU: NewIndex already classifies with SWAR")
	}
	body := []byte(`{"a":"x\"y","b\\":"\\\\","c":"\\\"q\\\\\\","d":[1,{"e":"` +
		string(bytes.Repeat([]byte(`s,:{[ ]}`), 12)) + `"}],"f":"\\\\\"","g":"\\\\\\"}`)
	var inputs [][]byte
	for shift := 0; shift < 2*bits.WordSize; shift++ {
		inputs = append(inputs, append(bytes.Repeat([]byte{' '}, shift), body...))
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		inputs = append(inputs, randJSONish(rng, rng.Intn(700)))
	}
	for _, data := range inputs {
		ix := NewIndex(data)
		got, want := ix.rows, swarRows(data)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("len %d: word %d row %d: vector %064b, SWAR %064b\ndata: %q",
					len(data), i/idxStride, i%idxStride, got[i], want[i], data)
			}
		}
		ix.Release()
	}
}
