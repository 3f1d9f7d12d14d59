// Package stream implements the JSONSki streaming cursor: a forward-only
// position over a JSON byte stream together with word-sized structural
// bitmaps (paper §4.1, "structural intervals").
//
// The stream advances through the input one 64-byte word at a time. For
// every word it resolves the string mask (unescaped quotes → in-string
// bits, with escape and quote carries flowing across word boundaries) and
// then serves metacharacter bitmaps with pseudo-metacharacters — the ones
// inside JSON strings — already removed. How the masks are built depends
// on the classifier bits.Classify runs. With the AVX2 kernel one call
// yields every class, so the word is resolved whole when it is loaded.
// On the SWAR path each class costs a pass of its own, so masks are
// computed lazily per word, mirroring the paper's "an interval bitmap
// should be constructed after the prior one has been used and
// destroyed".
//
// The string-mask carry is the one truly sequential part of the pipeline:
// even when the caller fast-forwards, every intervening word's quote mask
// must be folded into the carry. Fast-forwarding therefore skips
// tokenization, byte-level scanning, and automaton updates — not the
// word-mask pipeline — exactly as in the paper.
package stream

import (
	"fmt"

	"jsonski/internal/bits"
)

// Meta enumerates the structural metacharacters tracked by the stream.
type Meta uint8

// Metacharacters of JSON, in the order used by the mask cache.
const (
	LBrace   Meta = iota // '{'
	RBrace               // '}'
	LBracket             // '['
	RBracket             // ']'
	Colon                // ':'
	Comma                // ','
	Quote                // '"' (unescaped quotes only)
	NumMeta
)

var metaByte = [NumMeta]byte{'{', '}', '[', ']', ':', ',', '"'}

// Byte returns the character this metacharacter stands for.
func (m Meta) Byte() byte { return metaByte[m] }

// String implements fmt.Stringer for error messages.
func (m Meta) String() string { return string(metaByte[m]) }

// Stream is a forward-only cursor over a single JSON input buffer.
// The zero value is not usable; call New.
type Stream struct {
	data []byte
	pos  int // absolute byte position, 0 <= pos <= len(data)

	// idx, when non-nil, is a borrowed prebuilt structural index: loadWord
	// copies the word's masks out of it instead of classifying the word,
	// and fast-forwards jump without folding the intervening words
	// through the string carry (the index already resolved string state
	// for the whole buffer).
	idx *Index

	wordBase int // absolute position of bit 0 of the cached word
	blk      bits.Block
	inStr    uint64 // in-string mask of the cached word
	quotes   uint64 // unescaped-quote mask of the cached word

	// The SWAR path fills the masks below lazily, flagging each as it is
	// computed; the vector and indexed paths fill them all at load time.
	masks        [NumMeta]uint64 // string-filtered
	have         uint16          // bit i set when masks[i] is valid
	ws           uint64          // whitespace mask (flagged by haveWS)
	haveWS       bool
	stop         uint64 // union of '{','[',']' (for primitive runs)
	haveStop     bool
	attrStop     uint64 // union of '{','[','}' (for attribute runs)
	haveAttrStop bool
	term         uint64 // union of ',','}',']' (primitive terminators)
	haveTerm     bool

	ec bits.EscapeCarry
	sc bits.StringCarry

	// WordsProcessed counts how many 64-byte words have been pulled
	// through the mask pipeline; used by benchmarks and stats.
	WordsProcessed int
}

// New returns a stream positioned at byte 0 of data.
func New(data []byte) *Stream {
	s := &Stream{}
	s.Reset(data)
	return s
}

// Reset re-targets the stream at a new buffer, reusing the allocation.
// Any borrowed index from a previous ResetIndexed is dropped.
func (s *Stream) Reset(data []byte) { s.bind(data, nil) }

// NewIndexed returns a stream over ix's buffer that borrows the prebuilt
// structural index instead of computing masks word by word. The caller
// must hold a reference on ix for the stream's lifetime.
func NewIndexed(ix *Index) *Stream {
	s := &Stream{}
	s.ResetIndexed(ix)
	return s
}

// ResetIndexed re-targets the stream at a prebuilt index, reusing the
// allocation.
func (s *Stream) ResetIndexed(ix *Index) { s.bind(ix.data, ix) }

// bind positions the stream at byte 0 of data, borrowing ix's masks
// when ix is non-nil.
func (s *Stream) bind(data []byte, ix *Index) {
	s.data = data
	s.idx = ix
	s.pos = 0
	s.wordBase = -bits.WordSize
	s.ec.Reset()
	s.sc.Reset()
	s.WordsProcessed = 0
	s.loadWord(0)
}

// Data returns the underlying buffer.
func (s *Stream) Data() []byte { return s.data }

// Len returns the input length.
func (s *Stream) Len() int { return len(s.data) }

// Pos returns the current absolute position.
func (s *Stream) Pos() int { return s.pos }

// EOF reports whether the cursor has consumed the whole input.
func (s *Stream) EOF() bool { return s.pos >= len(s.data) }

// loadWord pulls words through the carry pipeline until the word starting
// at base (a multiple of 64) is cached. base must be >= current wordBase.
// With a borrowed index there are no carries to fold, so the target word
// is loaded directly — skipped words are never touched.
func (s *Stream) loadWord(base int) {
	if s.idx != nil {
		s.wordBase = base
		s.resolveRow(s.indexedRow(base))
		return
	}
	if bits.Vectorized() {
		s.loadVectorWord(base)
		return
	}
	for s.wordBase < base {
		s.wordBase += bits.WordSize
		if s.wordBase >= len(s.data) {
			// Past EOF: empty masks, carries frozen.
			s.blk = bits.Block{}
			s.quotes = 0
			s.inStr = 0
			s.have = 1<<NumMeta - 1
			s.haveWS = true
			s.haveStop = true
			s.haveAttrStop = true
			s.haveTerm = true
			s.masks = [NumMeta]uint64{}
			s.ws = 0
			s.stop = 0
			s.attrStop = 0
			s.term = 0
			return
		}
		end := s.wordBase + bits.WordSize
		if end > len(s.data) {
			end = len(s.data)
		}
		s.blk.Load(s.data[s.wordBase:end])
		quotes, backslash := s.blk.QuoteAndBackslashMasks()
		s.quotes = quotes &^ s.ec.Escaped(backslash)
		s.inStr = s.sc.InStringMask(s.quotes)
		s.have = 0
		s.haveWS = false
		s.haveStop = false
		s.haveAttrStop = false
		s.haveTerm = false
		s.WordsProcessed++
	}
}

// loadVectorWord is loadWord on the AVX2 kernel. Every skipped word
// still folds its quotes through the carries, and the target word is
// resolved whole, as an indexed word is: one Classify call yields all
// nine masks, so a lazy cache would save nothing.
func (s *Stream) loadVectorWord(base int) {
	var m bits.Masks
	for s.wordBase < base {
		s.wordBase += bits.WordSize
		if s.wordBase >= len(s.data) {
			// Past EOF: empty masks, carries frozen.
			s.resolveRow(&noRow)
			return
		}
		end := s.wordBase + bits.WordSize
		if end > len(s.data) {
			end = len(s.data)
		}
		bits.Classify(&m, s.data[s.wordBase:end])
		quotes := m.Quote &^ s.ec.Escaped(m.Backslash)
		inStr := s.sc.InStringMask(quotes)
		s.WordsProcessed++
		if s.wordBase == base {
			row := [idxStride]uint64{
				idxInStr:    inStr,
				idxQuote:    quotes,
				idxWS:       m.WS,
				idxLBrace:   m.LBrace &^ inStr,
				idxRBrace:   m.RBrace &^ inStr,
				idxLBracket: m.LBracket &^ inStr,
				idxRBracket: m.RBracket &^ inStr,
				idxColon:    m.Colon &^ inStr,
				idxComma:    m.Comma &^ inStr,
			}
			s.resolveRow(&row)
		}
	}
}

// noRow stands in for the row of a word past the end of input; it is
// only ever read.
var noRow [idxStride]uint64

// indexedRow returns the borrowed index's row for the word starting at
// base, or noRow past the end of input.
func (s *Stream) indexedRow(base int) *[idxStride]uint64 {
	if base >= len(s.data) {
		return &noRow
	}
	s.WordsProcessed++
	return (*[idxStride]uint64)(s.idx.row(base / bits.WordSize))
}

// resolveRow caches the current word fully resolved from a row in the
// index layout: every mask the lazy pipeline would compute on demand,
// the three fused unions included, is filled and marked present. It
// serves both the indexed and the vector loader.
func (s *Stream) resolveRow(row *[idxStride]uint64) {
	s.inStr = row[idxInStr]
	s.quotes = row[idxQuote]
	s.ws = row[idxWS]
	s.masks[LBrace] = row[idxLBrace]
	s.masks[RBrace] = row[idxRBrace]
	s.masks[LBracket] = row[idxLBracket]
	s.masks[RBracket] = row[idxRBracket]
	s.masks[Colon] = row[idxColon]
	s.masks[Comma] = row[idxComma]
	s.masks[Quote] = s.quotes
	s.stop = s.masks[LBrace] | s.masks[LBracket] | s.masks[RBracket]
	s.attrStop = s.masks[LBrace] | s.masks[LBracket] | s.masks[RBrace]
	s.term = s.masks[Comma] | s.masks[RBrace] | s.masks[RBracket]
	s.have = 1<<NumMeta - 1
	s.haveWS = true
	s.haveStop = true
	s.haveAttrStop = true
	s.haveTerm = true
}

// SetPos moves the cursor forward to absolute position p, folding any
// skipped words through the string-mask carry. Moving backwards is a
// programming error and panics.
func (s *Stream) SetPos(p int) {
	if p < s.pos {
		panic(fmt.Sprintf("stream: SetPos moving backwards (%d -> %d)", s.pos, p))
	}
	if p > len(s.data) {
		p = len(s.data)
	}
	s.pos = p
	base := p &^ (bits.WordSize - 1)
	if base > s.wordBase {
		s.loadWord(base)
	}
}

// Advance moves the cursor forward by n bytes.
func (s *Stream) Advance(n int) { s.SetPos(s.pos + n) }

// WordBase returns the absolute position of bit 0 of the cached word.
func (s *Stream) WordBase() int { return s.wordBase }

// NextWord advances the cursor to the start of the next word. It reports
// false when that would move past the end of input.
func (s *Stream) NextWord() bool {
	next := s.wordBase + bits.WordSize
	if next >= len(s.data) {
		s.pos = len(s.data)
		return false
	}
	s.SetPos(next)
	return true
}

// Mask returns the string-filtered bitmap of metacharacter m for the
// cached word (bit i = byte wordBase+i).
func (s *Stream) Mask(m Meta) uint64 {
	if s.have&(1<<m) == 0 {
		if m == Quote {
			s.masks[m] = s.quotes
		} else {
			s.masks[m] = s.blk.EqMask(m.Byte()) &^ s.inStr
		}
		s.have |= 1 << m
	}
	return s.masks[m]
}

// MaskFrom returns Mask(m) with all bits before the current position
// cleared — the "bits up to start reset to 0s" step of Algorithm 3.
func (s *Stream) MaskFrom(m Meta) uint64 {
	return bits.ClearBelow(s.Mask(m), uint(s.pos-s.wordBase))
}

// MaskFrom2 returns MaskFrom for two metacharacters, computing both in a
// single fused classification pass when neither is cached yet.
func (s *Stream) MaskFrom2(a, b Meta) (uint64, uint64) {
	if s.have&(1<<a|1<<b) == 0 && a != Quote && b != Quote {
		ma, mb := s.blk.EqMask2(a.Byte(), b.Byte())
		s.masks[a] = ma &^ s.inStr
		s.masks[b] = mb &^ s.inStr
		s.have |= 1<<a | 1<<b
	}
	return s.MaskFrom(a), s.MaskFrom(b)
}

// StopMaskFrom returns the union of the '{', '[' and ']' masks from the
// current position — the stop set of a primitive-element run — computed
// in one fused pass and cached per word.
func (s *Stream) StopMaskFrom() uint64 {
	if !s.haveStop {
		s.stop = s.blk.EqMask3Or('{', '[', ']') &^ s.inStr
		s.haveStop = true
	}
	return bits.ClearBelow(s.stop, uint(s.pos-s.wordBase))
}

// AttrStopMaskFrom returns the union of the '{', '[' and '}' masks from
// the current position — the stop set when scanning an object for its
// next container-valued attribute (the paper's goOverPriAttrs), fused
// and cached per word.
func (s *Stream) AttrStopMaskFrom() uint64 {
	if !s.haveAttrStop {
		s.attrStop = s.blk.EqMask3Or('{', '[', '}') &^ s.inStr
		s.haveAttrStop = true
	}
	return bits.ClearBelow(s.attrStop, uint(s.pos-s.wordBase))
}

// TermMaskFrom returns the union of the ',', '}' and ']' masks from the
// current position — the terminator set of any primitive value,
// whichever container holds it (in valid JSON the wrong-container
// closer cannot precede the right one) — fused and cached per word.
func (s *Stream) TermMaskFrom() uint64 {
	if !s.haveTerm {
		s.term = s.blk.EqMask3Or(',', '}', ']') &^ s.inStr
		s.haveTerm = true
	}
	return bits.ClearBelow(s.term, uint(s.pos-s.wordBase))
}

// NextTerm advances the cursor word by word to the next primitive
// terminator (',', '}' or ']') at or after the current position,
// returning its absolute position and the terminating byte, or -1 at
// EOF. The cursor is left ON the terminator. This is the sibling-
// stepping primitive: one fused bitmap per word instead of separate
// per-metacharacter classifications.
func (s *Stream) NextTerm() (int, byte) {
	for {
		if m := s.TermMaskFrom(); m != 0 {
			p := s.wordBase + bits.TrailingZeros(m)
			s.pos = p
			return p, s.data[p]
		}
		if !s.NextWord() {
			return -1, 0
		}
	}
}

// WhitespaceMask returns the whitespace bitmap of the cached word.
// It is not string-filtered; callers only consult it outside strings.
func (s *Stream) WhitespaceMask() uint64 {
	if !s.haveWS {
		s.ws = s.blk.WhitespaceMask()
		s.haveWS = true
	}
	return s.ws
}

// InString reports whether the byte at the current position is inside a
// JSON string (opening quote inclusive).
func (s *Stream) InString() bool {
	if s.EOF() {
		return false
	}
	return s.inStr&(1<<uint(s.pos-s.wordBase)) != 0
}

// ByteAt returns the byte at absolute position p without moving.
func (s *Stream) ByteAt(p int) byte { return s.data[p] }

// Current returns the byte under the cursor; it must not be at EOF.
func (s *Stream) Current() byte { return s.data[s.pos] }

// SkipWS advances the cursor to the next non-whitespace byte and returns
// it. At EOF it returns 0 and false. Whitespace runs in real JSON are
// zero to two bytes, so the scan is scalar: a mask would cost a full
// word classification to skip what is almost always nothing.
func (s *Stream) SkipWS() (byte, bool) {
	d := s.data
	p := s.pos
	for p < len(d) {
		switch c := d[p]; c {
		case ' ', '\t', '\n', '\r':
			p++
		default:
			if p != s.pos {
				s.SetPos(p)
			}
			return c, true
		}
	}
	s.SetPos(len(d))
	return 0, false
}

// NextMeta advances the cursor to the next occurrence of m at or after the
// current position and returns its absolute position, or -1 at EOF. The
// cursor is left ON the metacharacter.
func (s *Stream) NextMeta(m Meta) int {
	for {
		if cand := s.MaskFrom(m); cand != 0 {
			s.pos = s.wordBase + bits.TrailingZeros(cand)
			return s.pos
		}
		if !s.NextWord() {
			return -1
		}
	}
}

// NextMeta2 advances to the next occurrence of either a or b, returning
// its position and which one was found, or -1 at EOF.
func (s *Stream) NextMeta2(a, b Meta) (int, Meta) {
	for {
		ma := s.MaskFrom(a)
		mb := s.MaskFrom(b)
		if m := ma | mb; m != 0 {
			p := s.wordBase + bits.TrailingZeros(m)
			s.pos = p
			if ma != 0 && (mb == 0 || bits.TrailingZeros(ma) < bits.TrailingZeros(mb)) {
				return p, a
			}
			return p, b
		}
		if !s.NextWord() {
			return -1, a
		}
	}
}

// ReadString reads the JSON string whose opening quote is under the
// cursor, returning the raw (still escaped) contents between the quotes
// and leaving the cursor just past the closing quote.
func (s *Stream) ReadString() ([]byte, error) {
	if s.EOF() || s.Current() != '"' {
		return nil, fmt.Errorf("stream: expected '\"' at %d", s.pos)
	}
	start := s.pos + 1
	s.Advance(1) // past opening quote
	for {
		// quotes mask holds unescaped quotes only; the closing quote is
		// the next one at or after pos.
		q := bits.ClearBelow(s.quotes, uint(s.pos-s.wordBase))
		if q != 0 {
			end := s.wordBase + bits.TrailingZeros(q)
			s.SetPos(end + 1)
			return s.data[start:end], nil
		}
		if !s.NextWord() {
			return nil, fmt.Errorf("stream: unterminated string starting at %d", start-1)
		}
	}
}

// SkipString advances past the string under the cursor without
// materializing its contents.
func (s *Stream) SkipString() error {
	_, err := s.ReadString()
	return err
}

// SkipPrimitive advances the cursor past the non-string primitive value
// (number, true/false/null) starting at the cursor and returns the
// primitive's span [start, end). The cursor lands on the terminating
// comma, closing brace/bracket, or whitespace byte (or EOF).
func (s *Stream) SkipPrimitive() (start, end int) {
	start = s.pos
	for {
		stop := s.MaskFrom(Comma) | s.MaskFrom(RBrace) | s.MaskFrom(RBracket) |
			bits.ClearBelow(s.WhitespaceMask(), uint(s.pos-s.wordBase))
		if rem := len(s.data) - s.wordBase; rem < bits.WordSize {
			stop |= ^(uint64(1)<<uint(rem) - 1) // treat the padding as a stop
		}
		if stop != 0 {
			end = s.wordBase + bits.TrailingZeros(stop)
			if end > len(s.data) {
				end = len(s.data)
			}
			s.SetPos(end)
			return start, end
		}
		if !s.NextWord() {
			s.pos = len(s.data)
			return start, len(s.data)
		}
	}
}

// Expect consumes the byte c (after skipping whitespace) and returns an
// error naming the position if the next non-whitespace byte differs.
func (s *Stream) Expect(c byte) error {
	b, ok := s.SkipWS()
	if !ok {
		return fmt.Errorf("stream: expected %q, got EOF", c)
	}
	if b != c {
		return fmt.Errorf("stream: expected %q at %d, got %q", c, s.pos, b)
	}
	s.Advance(1)
	return nil
}
