package bits

// Masks is the raw stage-1 classification of one 64-byte block: one
// 64-bit mask per character class, bit i set when byte i of the block
// belongs to the class. Nothing is string-filtered or escape-resolved;
// callers fold Quote and Backslash through EscapeCarry and StringCarry
// and mask the structural classes with the resulting in-string bits.
//
// The field order is the order of the vector kernel's constant table
// and output stores (classify_amd64.s); keep the two in step.
type Masks struct {
	Quote     uint64 // '"'
	Backslash uint64 // '\\'
	LBrace    uint64 // '{'
	RBrace    uint64 // '}'
	LBracket  uint64 // '['
	RBracket  uint64 // ']'
	Colon     uint64 // ':'
	Comma     uint64 // ','
	WS        uint64 // bytes <= 0x20, as Block.WhitespaceMask
}

// Classify fills m with the masks of the first 64 bytes of b. A b
// shorter than 64 bytes is copied into a zero-padded block first, so
// the kernel never reads past len(b) and the tail classifies exactly as
// Block.Load pads it: padding bytes set WS and nothing else.
//
// It runs the AVX2 kernel when the CPU has it (see Vectorized) and the
// SWAR emulation otherwise; the two are bit-identical.
func Classify(m *Masks, b []byte) {
	if len(b) < WordSize {
		var buf [WordSize]byte
		copy(buf[:], b)
		b = buf[:]
	}
	p := (*[WordSize]byte)(b)
	if hasAVX2 {
		classifyAVX2(m, p)
	} else {
		classifySWAR(m, p)
	}
}

// Vectorized reports whether Classify runs the AVX2 kernel. It is fixed
// for the life of the process: CPUID decides it once, at start-up.
func Vectorized() bool { return hasAVX2 }

// classifySWAR is the portable half of Classify: the string-pipeline
// masks from QuoteAndBackslashMasks, then the six structural characters
// and whitespace in one more pass over the loaded words.
func classifySWAR(m *Masks, p *[WordSize]byte) {
	const (
		pLBrace   = '{' * lsb8
		pRBrace   = '}' * lsb8
		pLBracket = '[' * lsb8
		pRBracket = ']' * lsb8
		pColon    = ':' * lsb8
		pComma    = ',' * lsb8
		pWS       = 0x21 * lsb8
	)
	var blk Block
	blk.Load(p[:])
	m.Quote, m.Backslash = blk.QuoteAndBackslashMasks()
	var lbrace, rbrace, lbracket, rbracket, colon, comma, ws uint64
	for i := 0; i < 8; i++ {
		w := blk[i]
		sh := uint(8 * i)
		lbrace |= movemask(eqMaskWord(w, pLBrace)) << sh
		rbrace |= movemask(eqMaskWord(w, pRBrace)) << sh
		lbracket |= movemask(eqMaskWord(w, pLBracket)) << sh
		rbracket |= movemask(eqMaskWord(w, pRBracket)) << sh
		colon |= movemask(eqMaskWord(w, pColon)) << sh
		comma |= movemask(eqMaskWord(w, pComma)) << sh
		ws |= movemask(ltFlags(w, pWS)) << sh
	}
	m.LBrace, m.RBrace = lbrace, rbrace
	m.LBracket, m.RBracket = lbracket, rbracket
	m.Colon, m.Comma = colon, comma
	m.WS = ws
}
