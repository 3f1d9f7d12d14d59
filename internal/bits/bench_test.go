package bits

import "testing"

var sink uint64

func benchInput() []byte {
	b := make([]byte, 1<<16)
	for i := range b {
		b[i] = byte("abcdefgh{}[],:\" 0123456789"[i%26])
	}
	return b
}

func BenchmarkLoad(b *testing.B) {
	in := benchInput()
	var blk Block
	b.SetBytes(int64(len(in)))
	for i := 0; i < b.N; i++ {
		for off := 0; off+WordSize <= len(in); off += WordSize {
			blk.Load(in[off:])
			sink ^= blk[0]
		}
	}
}

func BenchmarkEqMask(b *testing.B) {
	in := benchInput()
	var blk Block
	b.SetBytes(int64(len(in)))
	for i := 0; i < b.N; i++ {
		for off := 0; off+WordSize <= len(in); off += WordSize {
			blk.Load(in[off:])
			sink ^= blk.EqMask('{')
		}
	}
}

func BenchmarkQuoteBackslash(b *testing.B) {
	in := benchInput()
	var blk Block
	b.SetBytes(int64(len(in)))
	for i := 0; i < b.N; i++ {
		for off := 0; off+WordSize <= len(in); off += WordSize {
			blk.Load(in[off:])
			q, bs := blk.QuoteAndBackslashMasks()
			sink ^= q ^ bs
		}
	}
}

func BenchmarkFullStringPipeline(b *testing.B) {
	in := benchInput()
	var blk Block
	var ec EscapeCarry
	var sc StringCarry
	b.SetBytes(int64(len(in)))
	for i := 0; i < b.N; i++ {
		for off := 0; off+WordSize <= len(in); off += WordSize {
			blk.Load(in[off:])
			q, bs := blk.QuoteAndBackslashMasks()
			q &^= ec.Escaped(bs)
			sink ^= sc.InStringMask(q)
		}
	}
}

var masksSink Masks

func BenchmarkClassify(b *testing.B) {
	in := benchInput()
	halves := []struct {
		name   string
		kernel func(*Masks, *[WordSize]byte)
	}{
		{"vector", classifyAVX2},
		{"SWAR", classifySWAR},
	}
	for _, h := range halves {
		b.Run(h.name, func(b *testing.B) {
			if h.name == "vector" && !hasAVX2 {
				b.Skip("no AVX2 on this CPU")
			}
			b.SetBytes(int64(len(in)))
			for i := 0; i < b.N; i++ {
				for off := 0; off+WordSize <= len(in); off += WordSize {
					h.kernel(&masksSink, (*[WordSize]byte)(in[off:]))
				}
			}
		})
	}
}
