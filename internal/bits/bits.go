// Package bits provides the word-level bit-parallel substrate that the
// JSONSki streaming engine and the preprocessing baselines are built on.
//
// Every operation consumes a 64-byte block of input and produces 64-bit
// masks, one bit per input byte, LSB-first (bit i of a word corresponds
// to byte i of the block). "Next occurrence of X after pos" is therefore
// the lowest set bit at or above pos, found with a trailing-zero count —
// the little-endian mirror of the paper's mirrored bitmaps + lzcnt.
//
// Stage 1 has one entry point, Classify: it turns a block into the nine
// raw masks (quote, backslash, the six structural characters and
// whitespace). On amd64 CPUs with AVX2, chosen once by CPUID, it runs a
// Go-assembly kernel that classifies 32 bytes per compare, as the
// paper's C++ does with intrinsics. Elsewhere it runs a SWAR
// (SIMD-within-a-register) emulation over eight 64-bit words, 8 bytes
// per operation. The two halves are bit-identical; the SWAR half is also
// the reference the differential tests check the kernel against.
//
// Block and its per-character methods (QuoteAndBackslashMasks, EqMask,
// EqMask2, EqMask3Or, WhitespaceMask) are the SWAR primitives. Outside
// this package only the streaming cursor's lazy SWAR path uses them,
// classifying one mask at a time as a query asks for it. The escape and
// string carries (EscapeCarry, StringCarry, PrefixXor) are shared by
// both halves.
package bits

import (
	"encoding/binary"
	stdbits "math/bits"
)

// WordSize is the number of input bytes covered by one mask word.
const WordSize = 64

const (
	lo7  = 0x7f7f7f7f7f7f7f7f
	msb8 = 0x8080808080808080
	lsb8 = 0x0101010101010101
)

// eqMaskWord returns a byte-granular flag word: byte i of the result is
// 0x80 if byte i of w equals the byte replicated in pat, else 0x00.
// SWAR zero-byte detection applied to w XOR pat. The (x&0x7f..)+0x7f..
// form never carries across lanes, unlike the shorter (x-1)&~x variant,
// which flags a 0x01 byte adjacent to a true match.
func eqMaskWord(w, pat uint64) uint64 {
	x := w ^ pat
	t := (x & lo7) + lo7
	return ^(t | x) & msb8
}

// movemask compresses a byte-granular flag word (0x80/0x00 per byte) into
// an 8-bit mask, bit i = flag of byte i. The multiplier places a copy of
// the flag from byte i at bit 56+i; each target bit has exactly one
// (i, shift) source pair, so no carries occur, and contributions past bit
// 63 fall off the top of the 64-bit product.
func movemask(flags uint64) uint64 {
	return flags * 0x0002040810204081 >> 56
}

// repeat replicates c into all eight bytes of a word.
func repeat(c byte) uint64 {
	return uint64(c) * lsb8
}

// le64 loads eight bytes little-endian; the compiler lowers it to a
// single unaligned load. The caller guarantees len(b) >= 8.
func le64(b []byte) uint64 {
	return binary.LittleEndian.Uint64(b)
}

// Block is a 64-byte chunk of input lifted into eight machine words, the
// unit every per-character classification operates on. Loading once and
// classifying many characters against the same words amortizes the loads
// across the eight metacharacters JSON needs.
type Block [8]uint64

// Load fills the block from b. If fewer than 64 bytes remain, the tail is
// padded with 0x00. Padding matches no metacharacter, quote or
// backslash, so it never fabricates structure, but it is below 0x21 and
// so reads as whitespace: WhitespaceMask (and Classify's WS mask) set
// its bits, and stream.NewIndex stores them in the tail row. Callers
// that care mask the tail off by the input length.
func (blk *Block) Load(b []byte) {
	if len(b) >= WordSize {
		for i := 0; i < 8; i++ {
			blk[i] = le64(b[i*8:])
		}
		return
	}
	var buf [WordSize]byte
	copy(buf[:], b)
	for i := 0; i < 8; i++ {
		blk[i] = le64(buf[i*8:])
	}
}

// EqMask returns the 64-bit mask of positions in the block holding c.
func (blk *Block) EqMask(c byte) uint64 {
	pat := repeat(c)
	var m uint64
	for i := 0; i < 8; i++ {
		m |= movemask(eqMaskWord(blk[i], pat)) << (8 * i)
	}
	return m
}

// LtMask returns the mask of positions holding a byte strictly less than c,
// for c <= 0x80. Used for whitespace/control classification.
func (blk *Block) LtMask(c byte) uint64 {
	pat := repeat(c)
	var m uint64
	for i := 0; i < 8; i++ {
		m |= movemask(ltFlags(blk[i], pat)) << (8 * i)
	}
	return m
}

// ltFlags returns 0x80 per byte of w that is strictly less than the byte
// replicated in pat (pat bytes must be < 0x80). Setting the high bit of
// every lane before subtracting keeps lanes from borrowing into each
// other; a byte is less than pat iff both its own high bit and the high
// bit of the lane difference are clear.
func ltFlags(w, pat uint64) uint64 {
	d := (w | msb8) - pat
	return ^(w | d) & msb8
}

// WhitespaceMask returns the mask of JSON whitespace bytes in the block.
// Outside strings, valid JSON admits no byte below 0x21 other than
// space/tab/LF/CR, so a single "less than 0x21" lane compare classifies
// whitespace in one pass instead of four equality passes. (Bytes inside
// strings may be misclassified, but whitespace masks are only consulted
// outside strings.)
func (blk *Block) WhitespaceMask() uint64 {
	return blk.LtMask(0x21)
}

// EqMask2 returns the masks for two characters in one pass over the
// block, sharing the word loads and loop overhead.
func (blk *Block) EqMask2(a, b byte) (uint64, uint64) {
	pa, pb := repeat(a), repeat(b)
	var ma, mb uint64
	for i := 0; i < 8; i++ {
		w := blk[i]
		ma |= movemask(eqMaskWord(w, pa)) << (8 * i)
		mb |= movemask(eqMaskWord(w, pb)) << (8 * i)
	}
	return ma, mb
}

// QuoteAndBackslashMasks returns the quote and backslash masks of the block.
// It is the always-on classification of the string pipeline, so the
// backslash gather is deferred behind a flag OR-test: most blocks hold no
// backslash, and for them only the presence test is paid.
func (blk *Block) QuoteAndBackslashMasks() (quotes, backslash uint64) {
	const pq, pb = '"' * lsb8, '\\' * lsb8
	var bsFlags [8]uint64
	var anyBS uint64
	for i := 0; i < 8; i++ {
		w := blk[i]
		quotes |= movemask(eqMaskWord(w, pq)) << (8 * i)
		f := eqMaskWord(w, pb)
		bsFlags[i] = f
		anyBS |= f
	}
	if anyBS != 0 {
		for i := 0; i < 8; i++ {
			backslash |= movemask(bsFlags[i]) << (8 * i)
		}
	}
	return quotes, backslash
}

// EqMask3Or returns the union of three characters' masks, OR-ing the
// per-byte flags before the single gather multiply — cheaper than three
// separate masks when only the union is needed.
func (blk *Block) EqMask3Or(a, b, c byte) uint64 {
	pa, pb, pc := repeat(a), repeat(b), repeat(c)
	var m uint64
	for i := 0; i < 8; i++ {
		w := blk[i]
		flags := eqMaskWord(w, pa) | eqMaskWord(w, pb) | eqMaskWord(w, pc)
		m |= movemask(flags) << (8 * i)
	}
	return m
}

// PrefixXor computes, for each bit position i, the XOR of bits [0..i] of x.
// With x = mask of unescaped quotes, the result flags every byte that lies
// inside a string (including the opening quote, excluding the closing one).
// This emulates the carry-less multiply by all-ones that simdjson uses,
// via log2(64) shift-XOR doubling steps.
func PrefixXor(x uint64) uint64 {
	x ^= x << 1
	x ^= x << 2
	x ^= x << 4
	x ^= x << 8
	x ^= x << 16
	x ^= x << 32
	return x
}

// EscapeCarry tracks backslash-run parity across 64-byte blocks.
// A quote is escaped iff it is preceded by an odd-length run of
// backslashes; runs may span block boundaries, so one bit of carry flows
// from block to block.
type EscapeCarry struct {
	// prevEscaped is set when the last byte of the previous block escapes
	// the first byte of this one (odd-length backslash run ending exactly
	// at the block boundary).
	prevEscaped bool
}

// Escaped returns the mask of bytes escaped by a preceding backslash,
// given the backslash mask of the current block, updating the carry.
// This is the simdjson "odd ends" algorithm restated LSB-first.
func (ec *EscapeCarry) Escaped(backslash uint64) uint64 {
	if backslash == 0 && !ec.prevEscaped {
		return 0
	}
	var escaped uint64
	if ec.prevEscaped {
		escaped = 1
	}
	// Positions that begin a backslash run (not themselves escaped by a
	// previous backslash). Iterate runs; each run of length L escapes the
	// character after it iff L is odd, and escapes alternating characters
	// inside itself. A closed-form exists, but runs of backslashes are
	// rare in real JSON; the loop executes once per run, not per byte.
	bs := backslash
	if ec.prevEscaped {
		bs &^= 1 // the first backslash is itself escaped; it starts no run
	}
	for bs != 0 {
		start := uint(stdbits.TrailingZeros64(bs))
		run := bs >> start
		// length of the run of consecutive ones starting at bit `start`
		l := uint(stdbits.TrailingZeros64(^run))
		// within the run, characters at odd offsets are escaped
		for k := uint(1); k < l; k += 2 {
			escaped |= 1 << (start + k)
		}
		if l%2 == 1 { // run escapes the next character
			if start+l < 64 {
				escaped |= 1 << (start + l)
			} else {
				ec.prevEscaped = true
				bs &^= ((uint64(1) << l) - 1) << start
				if bs == 0 {
					return escaped
				}
				continue
			}
		}
		ec.prevEscaped = false
		bs &^= ((uint64(1) << l) - 1) << start
	}
	if backslash&(1<<63) == 0 {
		ec.prevEscaped = false
	}
	return escaped
}

// Reset clears the carry for reuse on a new input.
func (ec *EscapeCarry) Reset() { ec.prevEscaped = false }

// StringCarry tracks the in-string flag across blocks.
type StringCarry struct {
	inString bool
}

// InStringMask turns the mask of unescaped quotes into the mask of bytes
// inside strings (opening quote included, closing quote excluded),
// carrying the open/closed state across blocks.
func (sc *StringCarry) InStringMask(quotes uint64) uint64 {
	m := PrefixXor(quotes)
	if sc.inString {
		m = ^m
	}
	sc.inString = m&(1<<63) != 0
	return m
}

// Reset clears the carry for reuse on a new input.
func (sc *StringCarry) Reset() { sc.inString = false }

// SelectBit returns the position of the n-th (1-based) set bit of m, or
// -1 if m has fewer than n bits set. n is expected to be small (object
// nesting depths), so clearing lowest bits iteratively beats a full
// select-by-rank ladder in practice.
func SelectBit(m uint64, n int) int {
	if n <= 0 {
		return -1
	}
	for i := 1; i < n; i++ {
		m &= m - 1
		if m == 0 {
			return -1
		}
	}
	if m == 0 {
		return -1
	}
	return stdbits.TrailingZeros64(m)
}

// ClearBelow clears all bits of m strictly below position p (0 <= p <= 64).
func ClearBelow(m uint64, p uint) uint64 {
	if p >= 64 {
		return 0
	}
	return m &^ (1<<p - 1)
}

// OnesCount is re-exported for callers that already import this package.
func OnesCount(m uint64) int { return stdbits.OnesCount64(m) }

// TrailingZeros is re-exported for callers that already import this package.
func TrailingZeros(m uint64) int { return stdbits.TrailingZeros64(m) }
