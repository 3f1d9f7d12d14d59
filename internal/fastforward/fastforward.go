// Package fastforward implements the five groups of bit-parallel
// fast-forward functions from the JSONSki paper (§3.2 Table 1, algorithms
// in §4.2). Every function advances a stream.Stream cursor to a target
// position computed from structural-interval bitmaps instead of parsing:
//
//   - G1: skip to the next attribute/element whose value type matches the
//     type the query expects (NextAttr / NextElem).
//   - G2: skip over an unmatched value (GoOverObj / GoOverAry /
//     GoOverPriAttr / GoOverPriElem).
//   - G3: the same movements, but returning the skipped span so the
//     caller can emit it as a match (GoOverObjOut / ...).
//   - G4: skip to the end of the current object once an attribute
//     matched (GoToObjEnd) — object attribute names are unique, so no
//     further attribute can match.
//   - G5: skip array elements outside an index range (GoOverElems,
//     GoToAryEnd).
//
// Object and array ends are located with the counting-based pairing
// strategy of Lemma 4.2/Theorem 4.3: walk the intervals between
// consecutive openers, popcount the closers inside each, and select the
// n-th closer once enough have accumulated. Braces pair independently of
// brackets, so tracking a single metacharacter pair suffices even inside
// mixed nesting.
package fastforward

import (
	"fmt"

	"jsonski/internal/bits"
	"jsonski/internal/jsonpath"
	"jsonski/internal/stream"
	"jsonski/internal/telemetry"
)

// Group identifies which fast-forward group a movement is charged to, for
// the paper's Table 6 accounting.
type Group int

// Fast-forward groups (paper Table 1).
const (
	G1 Group = iota
	G2
	G3
	G4
	G5
	NumGroups
)

// String implements fmt.Stringer.
func (g Group) String() string {
	if g < 0 || g >= NumGroups {
		return "G?"
	}
	return [...]string{"G1", "G2", "G3", "G4", "G5"}[g]
}

// Stats accumulates how many input bytes each group fast-forwarded over.
type Stats struct {
	SkippedBytes [NumGroups]int64
}

// TotalSkipped returns the bytes skipped across all groups.
func (st *Stats) TotalSkipped() int64 {
	var t int64
	for _, v := range st.SkippedBytes {
		t += v
	}
	return t
}

// Ratio returns the per-group and overall fast-forward ratios for an
// input of n bytes (paper Table 6).
func (st *Stats) Ratio(n int64) (perGroup [NumGroups]float64, overall float64) {
	if n == 0 {
		return
	}
	for g, v := range st.SkippedBytes {
		perGroup[g] = float64(v) / float64(n)
	}
	overall = float64(st.TotalSkipped()) / float64(n)
	return
}

// FF binds the fast-forward functions to a stream cursor.
type FF struct {
	S     *stream.Stream
	Stats Stats

	// Trace, when non-nil, receives one bounded event per fast-forward
	// movement (explain mode). A nil Trace's Record is a no-op inlined
	// into charge, so the disabled path pays one branch per movement
	// (scripts/lint.sh checks that both stay inlinable).
	Trace *telemetry.Trace
}

// New returns fast-forward functions over s.
func New(s *stream.Stream) *FF { return &FF{S: s} }

// Reset rebinds the cursor and clears statistics. The trace binding, if
// any, is owned by the engine and survives the reset.
func (f *FF) Reset(s *stream.Stream) {
	f.S = s
	f.Stats = Stats{}
}

// charge accounts the movement over [start, end) to group g, recording
// an explain event when tracing is on. op names the paper's fast-forward
// function so a trace reads like Table 1.
func (f *FF) charge(g Group, start, end int, op string) {
	if end > start {
		f.Stats.SkippedBytes[g] += int64(end - start)
		f.Trace.Record(int(g), op, start, end)
	}
}

// skipBalanced advances the cursor just past the closer that balances
// `depth` already-open openers, scanning interval by interval (paper
// Algorithm 4). The cursor must be positioned after those openers.
func (f *FF) skipBalanced(open, close stream.Meta, depth int) error {
	s := f.S
	for {
		om, cm := s.MaskFrom2(open, close)
		for om != 0 {
			oPos := bits.TrailingZeros(om)
			below := cm & (uint64(1)<<uint(oPos) - 1)
			n := bits.OnesCount(below)
			if n >= depth {
				end := s.WordBase() + bits.SelectBit(below, depth)
				s.SetPos(end + 1)
				return nil
			}
			// Not enough closers before this opener: consume them and
			// open one more level (the [num < num] branch of Alg. 4).
			depth += 1 - n
			cm = bits.ClearBelow(cm, uint(oPos)+1)
			om &= om - 1
		}
		// No further openers in this word; remaining closers may still
		// finish the structure.
		if n := bits.OnesCount(cm); n >= depth {
			end := s.WordBase() + bits.SelectBit(cm, depth)
			s.SetPos(end + 1)
			return nil
		} else {
			depth -= n
		}
		if !s.NextWord() {
			return fmt.Errorf("fastforward: unbalanced %q/%q, %d still open at EOF", open.Byte(), close.Byte(), depth)
		}
	}
}

// GoOverObj skips the object whose opening '{' the cursor is on (or
// before, separated only by whitespace), leaving the cursor just past the
// matching '}'. The movement is charged to group g.
func (f *FF) GoOverObj(g Group) error {
	start, err := f.expectOpen('{')
	if err != nil {
		return err
	}
	if err := f.skipBalanced(stream.LBrace, stream.RBrace, 1); err != nil {
		return err
	}
	f.charge(g, start, f.S.Pos(), "GoOverObj")
	return nil
}

// GoOverAry skips the array whose opening '[' the cursor is on,
// leaving the cursor just past the matching ']'.
func (f *FF) GoOverAry(g Group) error {
	start, err := f.expectOpen('[')
	if err != nil {
		return err
	}
	if err := f.skipBalanced(stream.LBracket, stream.RBracket, 1); err != nil {
		return err
	}
	f.charge(g, start, f.S.Pos(), "GoOverAry")
	return nil
}

func (f *FF) expectOpen(c byte) (int, error) {
	b, ok := f.S.SkipWS()
	if !ok {
		return 0, fmt.Errorf("fastforward: expected %q, got EOF", c)
	}
	if b != c {
		return 0, fmt.Errorf("fastforward: expected %q at %d, got %q", c, f.S.Pos(), b)
	}
	start := f.S.Pos()
	f.S.Advance(1)
	return start, nil
}

// GoToObjEnd fast-forwards from anywhere inside the current object
// (between members) to just past its closing '}' (paper G4).
func (f *FF) GoToObjEnd() error {
	start := f.S.Pos()
	if err := f.skipBalanced(stream.LBrace, stream.RBrace, 1); err != nil {
		return err
	}
	f.charge(G4, start, f.S.Pos(), "GoToObjEnd")
	return nil
}

// GoToAryEnd fast-forwards from anywhere inside the current array
// (between elements) to just past its closing ']' (paper G5).
func (f *FF) GoToAryEnd() error {
	start := f.S.Pos()
	if err := f.skipBalanced(stream.LBracket, stream.RBracket, 1); err != nil {
		return err
	}
	f.charge(G5, start, f.S.Pos(), "GoToAryEnd")
	return nil
}

// GoOverPriAttr skips the primitive attribute value starting at the
// cursor, leaving the cursor ON the terminating ',' or '}' and reporting
// which terminated it.
func (f *FF) GoOverPriAttr(g Group) (term byte, err error) {
	return f.goOverPrimitive(g, "GoOverPriAttr")
}

// GoOverPriElem skips the primitive array element starting at the cursor,
// leaving the cursor ON the terminating ',' or ']'.
func (f *FF) GoOverPriElem(g Group) (term byte, err error) {
	return f.goOverPrimitive(g, "GoOverPriElem")
}

// goOverPrimitive jumps to the value's terminator with the stream's
// fused terminator bitmap (one classification per word instead of one
// per metacharacter); in valid JSON the first of ','/'}'/']' outside a
// string is the terminator regardless of the enclosing container kind.
func (f *FF) goOverPrimitive(g Group, op string) (byte, error) {
	s := f.S
	start := s.Pos()
	p, b := s.NextTerm()
	if p < 0 {
		return 0, fmt.Errorf("fastforward: unterminated primitive at %d", start)
	}
	f.charge(g, start, p, op)
	return b, nil
}

// Span is a half-open byte range of the input, used by the G3 output
// variants.
type Span struct{ Start, End int }

// Bytes materializes the span over the given input buffer.
func (sp Span) Bytes(data []byte) []byte { return data[sp.Start:sp.End] }

// GoOverObjOut is GoOverObj charged to G3, returning the skipped span so
// the caller can emit it as a match.
func (f *FF) GoOverObjOut() (Span, error) {
	b, ok := f.S.SkipWS()
	if !ok || b != '{' {
		return Span{}, fmt.Errorf("fastforward: expected '{' at %d", f.S.Pos())
	}
	start := f.S.Pos()
	f.S.Advance(1)
	if err := f.skipBalanced(stream.LBrace, stream.RBrace, 1); err != nil {
		return Span{}, err
	}
	f.charge(G3, start, f.S.Pos(), "GoOverObjOut")
	return Span{start, f.S.Pos()}, nil
}

// GoOverAryOut is GoOverAry charged to G3, returning the skipped span.
func (f *FF) GoOverAryOut() (Span, error) {
	b, ok := f.S.SkipWS()
	if !ok || b != '[' {
		return Span{}, fmt.Errorf("fastforward: expected '[' at %d", f.S.Pos())
	}
	start := f.S.Pos()
	f.S.Advance(1)
	if err := f.skipBalanced(stream.LBracket, stream.RBracket, 1); err != nil {
		return Span{}, err
	}
	f.charge(G3, start, f.S.Pos(), "GoOverAryOut")
	return Span{start, f.S.Pos()}, nil
}

// GoOverPriAttrOut / GoOverPriElemOut skip a primitive value, returning
// its whitespace-trimmed span and leaving the cursor ON the terminator.
func (f *FF) GoOverPriAttrOut() (Span, byte, error) {
	return f.goOverPrimitiveOut("GoOverPriAttrOut")
}

// GoOverPriElemOut is the array-element counterpart of GoOverPriAttrOut.
func (f *FF) GoOverPriElemOut() (Span, byte, error) {
	return f.goOverPrimitiveOut("GoOverPriElemOut")
}

func (f *FF) goOverPrimitiveOut(op string) (Span, byte, error) {
	s := f.S
	start := s.Pos()
	p, b := s.NextTerm()
	if p < 0 {
		return Span{}, 0, fmt.Errorf("fastforward: unterminated primitive at %d", start)
	}
	end := p
	data := s.Data()
	for end > start && isWS(data[end-1]) {
		end--
	}
	f.charge(G3, start, p, op)
	return Span{start, end}, b, nil
}

func isWS(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\r' }

// AttrResult reports what NextAttr found.
type AttrResult struct {
	Name  []byte             // raw attribute name (escapes intact)
	VType jsonpath.ValueType // actual type of the attribute value
	End   bool               // the object ended before a candidate
}

// NextAttr advances from an attribute boundary (just past '{', or at/just
// past the ',' after a previous member) to the next attribute whose value
// type can match `expected`, skipping non-candidates bit-parallel without
// extracting their names (paper G1, Algorithm 5). Unknown accepts any
// type. On success the cursor rests on the first byte of the value.
// When the object ends first, the cursor is just past the '}' and
// End=true.
func (f *FF) NextAttr(expected jsonpath.ValueType) (AttrResult, error) {
	if expected == jsonpath.Object || expected == jsonpath.Array || expected == jsonpath.Container {
		return f.nextTypedAttr(expected)
	}
	s := f.S
	for {
		b, ok := s.SkipWS()
		if !ok {
			return AttrResult{}, fmt.Errorf("fastforward: EOF inside object")
		}
		switch b {
		case '}':
			s.Advance(1)
			return AttrResult{End: true}, nil
		case ',':
			s.Advance(1)
			continue
		case '"':
			// fall through to name handling below
		default:
			return AttrResult{}, fmt.Errorf("fastforward: expected attribute name at %d, got %q", s.Pos(), b)
		}
		nameStart := s.Pos()
		// Jump over the name using the word's quote bitmap (already
		// resolved for string masking, so this costs no additional
		// classification); the name's content is never examined.
		name, err := s.ReadString()
		if err != nil {
			return AttrResult{}, err
		}
		if err := s.Expect(':'); err != nil {
			return AttrResult{}, err
		}
		vb, ok := s.SkipWS()
		if !ok {
			return AttrResult{}, fmt.Errorf("fastforward: attribute at %d has no value", nameStart)
		}
		vt := jsonpath.TypeOfByte(vb)
		if expected.Admits(vt) {
			return AttrResult{Name: name, VType: vt}, nil
		}
		// Wrong type: fast-forward over the whole attribute (G1).
		switch vt {
		case jsonpath.Object:
			if err := f.GoOverObj(G1); err != nil {
				return AttrResult{}, err
			}
		case jsonpath.Array:
			if err := f.GoOverAry(G1); err != nil {
				return AttrResult{}, err
			}
		default:
			if _, err := f.GoOverPriAttr(G1); err != nil {
				return AttrResult{}, err
			}
		}
		// Charge the skipped name region too; the value movement above
		// charged itself. (The +3 covers the name's quotes and colon.)
		f.charge(G1, nameStart, nameStart+len(name)+3, "NextAttr")
	}
}

// ElemResult reports what NextElem found.
type ElemResult struct {
	VType jsonpath.ValueType // type of the element the cursor rests on
	Index int                // that element's index
	End   bool               // the array ended first
}

// NextElem advances from an element boundary to the next element whose
// type can match `expected` (Unknown accepts any), maintaining the element
// index across skipped elements. Runs of primitive elements are skipped in
// one interval per word, popcounting the commas to keep the index right
// (paper's goOverPriElems + counter). On success the cursor rests on the
// first byte of the element; when the array ends, cursor is past ']'.
func (f *FF) NextElem(expected jsonpath.ValueType, idx int) (ElemResult, error) {
	s := f.S
	for {
		b, ok := s.SkipWS()
		if !ok {
			return ElemResult{}, fmt.Errorf("fastforward: EOF inside array")
		}
		switch b {
		case ']':
			s.Advance(1)
			return ElemResult{End: true, Index: idx}, nil
		case ',':
			s.Advance(1)
			idx++
			continue
		}
		vt := jsonpath.TypeOfByte(b)
		if expected.Admits(vt) {
			return ElemResult{VType: vt, Index: idx}, nil
		}
		// Skip the mismatched element (G1).
		switch vt {
		case jsonpath.Object:
			if err := f.GoOverObj(G1); err != nil {
				return ElemResult{}, err
			}
		case jsonpath.Array:
			if err := f.GoOverAry(G1); err != nil {
				return ElemResult{}, err
			}
		default:
			// A run of primitives: jump to the next '{', '[' or ']' in
			// one go, counting the commas crossed.
			commas, err := f.skipPrimitiveRun(G1, -1)
			if err != nil {
				return ElemResult{}, err
			}
			idx += commas
		}
	}
}

// skipPrimitiveRun advances from inside a run of primitive elements to
// the next '{', '[' or ']' at this level, returning the number of commas
// crossed. If maxCommas >= 0 the run stops just past the maxCommas-th
// comma instead (used by GoOverElems to honor index ranges). The cursor
// lands on the stopping '{', '[' or ']' — or just past the bounding comma.
func (f *FF) skipPrimitiveRun(g Group, maxCommas int) (int, error) {
	s := f.S
	start := s.Pos()
	commas := 0
	for {
		stop := s.StopMaskFrom()
		cm := s.MaskFrom(stream.Comma)
		var stopPos = -1
		if stop != 0 {
			stopPos = bits.TrailingZeros(stop)
			cm &= uint64(1)<<uint(stopPos) - 1
		}
		n := bits.OnesCount(cm)
		if maxCommas >= 0 && commas+n >= maxCommas {
			// The bounding comma is inside this word.
			k := maxCommas - commas
			p := s.WordBase() + bits.SelectBit(cm, k)
			s.SetPos(p + 1)
			f.charge(g, start, s.Pos(), "GoOverPriElems")
			return maxCommas, nil
		}
		commas += n
		if stopPos >= 0 {
			s.SetPos(s.WordBase() + stopPos)
			f.charge(g, start, s.Pos(), "GoOverPriElems")
			return commas, nil
		}
		if !s.NextWord() {
			return commas, fmt.Errorf("fastforward: unterminated array (primitive run from %d)", start)
		}
	}
}

// GoOverElems fast-forwards over the next k elements of the current
// array (paper G5), i.e. past the k-th structural comma from here.
// It returns the number of elements actually skipped and whether the
// array ended first (cursor just past ']'); when ended is false the
// cursor rests before the (k+1)-th element.
func (f *FF) GoOverElems(k int) (skipped int, ended bool, err error) {
	s := f.S
	crossed := 0
	sawValue := false // a value lies between the last comma and the cursor
	for crossed < k {
		b, ok := s.SkipWS()
		if !ok {
			return crossed, false, fmt.Errorf("fastforward: EOF inside array")
		}
		switch b {
		case ']':
			s.Advance(1)
			if sawValue {
				// The final element has no trailing comma but was
				// nevertheless skipped.
				crossed++
			}
			return crossed, true, nil
		case ',':
			start := s.Pos()
			s.Advance(1)
			crossed++
			sawValue = false
			f.charge(G5, start, s.Pos(), "GoOverElems")
		case '{':
			if err := f.GoOverObj(G5); err != nil {
				return crossed, false, err
			}
			sawValue = true
		case '[':
			if err := f.GoOverAry(G5); err != nil {
				return crossed, false, err
			}
			sawValue = true
		default:
			n, err := f.skipPrimitiveRun(G5, k-crossed)
			if err != nil {
				return crossed, false, err
			}
			crossed += n
			// The run ends just past its bounding comma (no pending
			// value), on a '{'/'[' whose preceding comma was counted,
			// or on ']' with the run's final primitive — counted by no
			// comma — behind us.
			sawValue = !s.EOF() && s.Current() == ']'
		}
	}
	return crossed, false, nil
}

// nextTypedAttr is the paper's enhanced goOverPriAttrs (Algorithm 5):
// when the query expects a container-typed attribute, whole runs of
// primitive attributes — names and values alike — are fast-forwarded in
// one structural-interval jump to the next '{', '[' or '}'. Only the
// candidate attribute's name is recovered, by a short backward scan from
// its value.
func (f *FF) nextTypedAttr(expected jsonpath.ValueType) (AttrResult, error) {
	s := f.S
	for {
		start := s.Pos()
		p := -1
		var c byte
		for {
			if m := s.AttrStopMaskFrom(); m != 0 {
				p = s.WordBase() + bits.TrailingZeros(m)
				s.SetPos(p)
				c = s.Current()
				break
			}
			if !s.NextWord() {
				return AttrResult{}, fmt.Errorf("fastforward: EOF inside object")
			}
		}
		f.charge(G1, start, p, "GoOverPriAttrs")
		switch c {
		case '}':
			s.Advance(1)
			return AttrResult{End: true}, nil
		case '{':
			if expected.Admits(jsonpath.Object) {
				name, err := nameBefore(s.Data(), p)
				if err != nil {
					return AttrResult{}, err
				}
				return AttrResult{Name: name, VType: jsonpath.Object}, nil
			}
			// wrong container type: fast-forward over it (G1)
			if err := f.GoOverObj(G1); err != nil {
				return AttrResult{}, err
			}
		case '[':
			if expected.Admits(jsonpath.Array) {
				name, err := nameBefore(s.Data(), p)
				if err != nil {
					return AttrResult{}, err
				}
				return AttrResult{Name: name, VType: jsonpath.Array}, nil
			}
			if err := f.GoOverAry(G1); err != nil {
				return AttrResult{}, err
			}
		}
	}
}

// nameBefore recovers the attribute name whose value starts at position
// p: in valid JSON the bytes before p are `"name" : `, so a short
// backward scan over whitespace, the ':', and the (escape-aware) name
// string suffices. The scan touches only the name region, which the
// forward pass deliberately skipped.
func nameBefore(data []byte, p int) ([]byte, error) {
	i := p - 1
	for i >= 0 && isWS(data[i]) {
		i--
	}
	if i < 0 || data[i] != ':' {
		return nil, fmt.Errorf("fastforward: no ':' before value at %d", p)
	}
	i--
	for i >= 0 && isWS(data[i]) {
		i--
	}
	if i < 0 || data[i] != '"' {
		return nil, fmt.Errorf("fastforward: no attribute name before value at %d", p)
	}
	close := i
	i--
	for i >= 0 {
		if data[i] == '"' && !escapedAt(data, i) {
			return data[i+1 : close], nil
		}
		i--
	}
	return nil, fmt.Errorf("fastforward: unterminated name before value at %d", p)
}

// escapedAt reports whether data[i] is escaped by a backslash run.
func escapedAt(data []byte, i int) bool {
	n := 0
	for j := i - 1; j >= 0 && data[j] == '\\'; j-- {
		n++
	}
	return n%2 == 1
}
