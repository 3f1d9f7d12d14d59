// Package index is the Pison/Mison-class baseline: structural-index
// preprocessing (paper §2, Figure 3-(b)). Before any query runs, it
// builds *leveled bitmaps* — one colon bitmap and one comma bitmap per
// nesting level up to the query's depth — with the same stage-1
// classifier as JSONSki (bits.Classify). Queries then navigate the
// bitmaps: colons locate object attributes, commas separate array
// elements, and value spans fall out of the separator positions.
//
// Like Pison, the index can be constructed speculatively in parallel
// chunks (see parallel.go), but the whole input must be indexed before
// the first result is produced, and the bitmaps pin 2·L·n/8 bytes of
// memory — the contrast to streaming measured in Figures 10–14.
package index

import (
	"fmt"

	"jsonski/internal/automaton"
	"jsonski/internal/baseline/domparser"
	"jsonski/internal/bits"
	"jsonski/internal/jsonpath"
)

// Index is the leveled-bitmap structural index of one record.
type Index struct {
	data   []byte
	levels int
	words  int
	// colons[l] and commas[l] mark ':' / ',' at nesting level l
	// (level 0 = inside the root container).
	colons [][]uint64
	commas [][]uint64
}

// Levels returns the number of indexed levels.
func (ix *Index) Levels() int { return ix.levels }

// FootprintBytes reports the memory the bitmaps pin (Figure 13).
func (ix *Index) FootprintBytes() int64 {
	return int64(2 * ix.levels * ix.words * 8)
}

// Build constructs the leveled bitmaps for `levels` nesting levels.
func Build(data []byte, levels int) (*Index, error) {
	if levels < 1 {
		levels = 1
	}
	words := (len(data) + bits.WordSize - 1) / bits.WordSize
	ix := &Index{data: data, levels: levels, words: words}
	ix.colons = make([][]uint64, levels)
	ix.commas = make([][]uint64, levels)
	buf := make([]uint64, 2*levels*words) // one allocation for all levels
	for l := 0; l < levels; l++ {
		ix.colons[l] = buf[2*l*words : (2*l+1)*words]
		ix.commas[l] = buf[(2*l+1)*words : (2*l+2)*words]
	}
	var m bits.Masks
	var ec bits.EscapeCarry
	var sc bits.StringCarry
	depth := -1 // becomes 0 when the root '{'/'[' opens
	for w := 0; w < words; w++ {
		base := w * bits.WordSize
		end := base + bits.WordSize
		if end > len(data) {
			end = len(data)
		}
		bits.Classify(&m, data[base:end])
		inStr := sc.InStringMask(m.Quote &^ ec.Escaped(m.Backslash))
		var err error
		depth, err = ix.scatterWord(&m, inStr, w, depth)
		if err != nil {
			return nil, err
		}
	}
	if depth != -1 {
		return nil, fmt.Errorf("index: unbalanced input (final depth %d)", depth+1)
	}
	return ix, nil
}

// scatterWord distributes one word's structural bits into the per-level
// bitmaps, tracking the nesting depth across the word.
func (ix *Index) scatterWord(m *bits.Masks, inStr uint64, w, depth int) (int, error) {
	opens := (m.LBrace | m.LBracket) &^ inStr
	closes := (m.RBrace | m.RBracket) &^ inStr
	colons := m.Colon &^ inStr
	commas := m.Comma &^ inStr
	// Fast path: when the whole word sits on one level, colon/comma bits
	// transfer in bulk without per-bit iteration.
	if opens|closes == 0 {
		if depth >= 0 && depth < ix.levels {
			ix.colons[depth][w] |= colons
			ix.commas[depth][w] |= commas
		}
		return depth, nil
	}
	all := opens | closes | colons | commas
	for all != 0 {
		p := uint(bits.TrailingZeros(all))
		bit := uint64(1) << p
		all &= all - 1
		switch {
		case opens&bit != 0:
			depth++
		case closes&bit != 0:
			depth--
			if depth < -1 {
				return depth, fmt.Errorf("index: extra closer at %d", w*bits.WordSize+int(p))
			}
		case colons&bit != 0:
			if depth >= 0 && depth < ix.levels {
				ix.colons[depth][w] |= bit
			}
		default:
			if depth >= 0 && depth < ix.levels {
				ix.commas[depth][w] |= bit
			}
		}
	}
	return depth, nil
}

// bitsInRange iterates the set bits of bitmap within [from, to),
// invoking fn with each absolute position; fn returning false stops.
func bitsInRange(bitmap []uint64, from, to int, fn func(pos int) bool) {
	if from >= to {
		return
	}
	wFrom := from / bits.WordSize
	wTo := (to - 1) / bits.WordSize
	for w := wFrom; w <= wTo && w < len(bitmap); w++ {
		m := bitmap[w]
		if w == wFrom {
			m = bits.ClearBelow(m, uint(from%bits.WordSize))
		}
		if w == wTo {
			if r := uint(to - w*bits.WordSize); r < bits.WordSize {
				m &= uint64(1)<<r - 1
			}
		}
		for m != 0 {
			if !fn(w*bits.WordSize + bits.TrailingZeros(m)) {
				return
			}
			m &= m - 1
		}
	}
}

// Evaluator is a compiled query evaluated over a leveled-bitmap index.
type Evaluator struct {
	steps []jsonpath.Step
}

// New compiles the evaluator for a path.
func New(p *jsonpath.Path) *Evaluator { return &Evaluator{steps: p.Steps} }

// Compile parses and compiles in one step.
func Compile(expr string) (*Evaluator, error) {
	p, err := jsonpath.Parse(expr)
	if err != nil {
		return nil, err
	}
	return New(p), nil
}

// Levels returns the index depth the query needs.
func (ev *Evaluator) Levels() int {
	if len(ev.steps) == 0 {
		return 1
	}
	return len(ev.steps)
}

// Run builds the index and evaluates; emit may be nil.
func (ev *Evaluator) Run(data []byte, emit func(start, end int)) (int64, error) {
	ix, err := Build(data, ev.Levels())
	if err != nil {
		return 0, err
	}
	return ev.RunIndex(ix, emit)
}

// Count is Run without an emit callback.
func (ev *Evaluator) Count(data []byte) (int64, error) {
	return ev.Run(data, nil)
}

// RunIndex evaluates over a prebuilt index (so benchmarks can separate
// construction from querying).
func (ev *Evaluator) RunIndex(ix *Index, emit func(start, end int)) (int64, error) {
	data := ix.data
	s := skipWS(data, 0)
	if s >= len(data) {
		return 0, fmt.Errorf("index: empty input")
	}
	e := lastNonWS(data) + 1
	var count int64
	if len(ev.steps) == 0 {
		count++
		if emit != nil {
			emit(s, e)
		}
		return count, nil
	}
	// Filters, unions, descendants, and backward slices are outside what
	// the leveled bitmaps model; such tails are deferred to the reference
	// evaluator over the (already index-delimited) value span.
	var rootDoc *domparser.Doc
	var walk func(vs, ve, level, q int)
	refEval := func(vs, ve, q int) {
		end := trimEnd(data, vs, ve)
		d, err := domparser.ParseDoc(data[vs:end])
		if err != nil {
			return
		}
		steps := ev.steps[q:]
		if jsonpath.StepsHaveAbsolute(steps) {
			if rootDoc == nil {
				rd, err := domparser.ParseDoc(data[s:e])
				if err != nil {
					rd = &domparser.Doc{}
				}
				rootDoc = rd
			}
			d.Abs = rootDoc
		}
		d.EvalSpans(steps, func(s2, e2 int) {
			count++
			if emit != nil {
				emit(vs+s2, vs+e2)
			}
		})
	}
	walk = func(vs, ve, level, q int) {
		vs = skipWS(data, vs)
		if vs >= ve {
			return
		}
		if q == len(ev.steps) {
			count++
			if emit != nil {
				emit(vs, trimEnd(data, vs, ve))
			}
			return
		}
		st := ev.steps[q]
		close := trimEnd(data, vs, ve) - 1 // position of '}' / ']'
		switch st.Kind {
		case jsonpath.Child:
			if data[vs] != '{' || level >= ix.levels {
				return
			}
			ev.object(ix, vs, close, level, st, walk, q)
		case jsonpath.Index, jsonpath.Slice:
			if !st.Streamable() {
				refEval(vs, ve, q)
				return
			}
			if data[vs] != '[' || level >= ix.levels {
				return
			}
			ev.array(ix, vs, close, level, st, walk, q)
		case jsonpath.Wildcard:
			if level >= ix.levels {
				return
			}
			switch data[vs] {
			case '{':
				ev.object(ix, vs, close, level, st, walk, q)
			case '[':
				ev.array(ix, vs, close, level, st, walk, q)
			}
		default: // Filter, Union, Descendant
			refEval(vs, ve, q)
		}
	}
	walk(s, e, 0, 0)
	return count, nil
}

// object scans the colons of the object opening at vs and closing at
// `close` (the '}' position) at nesting level `level`.
func (ev *Evaluator) object(ix *Index, vs, close, level int, st jsonpath.Step, walk func(int, int, int, int), q int) {
	data := ix.data
	// Collect colon positions, then derive each value's end from the
	// following comma (or the object end).
	prevColon := -1
	matchedPrev := false
	emitPrev := func(end int) {
		if prevColon >= 0 && matchedPrev {
			walk(prevColon+1, end, level+1, q+1)
		}
	}
	done := false
	bitsInRange(ix.colons[level], vs+1, close, func(colon int) bool {
		// The previous attribute's value ends at the comma before this
		// colon's key; find it from the comma bitmap.
		if prevColon >= 0 {
			end := prevColon
			bitsInRange(ix.commas[level], prevColon+1, close, func(comma int) bool {
				end = comma
				return false
			})
			if end <= prevColon { // no comma found (malformed)
				end = close
			}
			emitPrev(end)
			if matchedPrev && st.Kind == jsonpath.Child {
				done = true
				return false // attribute names are unique
			}
		}
		key := keyBefore(data, colon)
		matchedPrev = st.Kind == jsonpath.Wildcard ||
			(key != nil && automaton.KeyEqual(key, st.Name))
		prevColon = colon
		return true
	})
	if !done {
		emitPrev(close)
	}
}

// array walks the commas of the array opening at vs and closing at
// `close` (the ']' position) at nesting level `level`.
func (ev *Evaluator) array(ix *Index, vs, close, level int, st jsonpath.Step, walk func(int, int, int, int), q int) {
	wild := st.Kind == jsonpath.Wildcard
	selects := func(i int) bool { return wild || automaton.IndexMatches(&st, i) }
	idx := 0
	prev := vs + 1
	bitsInRange(ix.commas[level], vs+1, close, func(comma int) bool {
		if selects(idx) {
			walk(prev, comma, level+1, q+1)
		}
		idx++
		prev = comma + 1
		return wild || idx < st.Hi // past the range: stop scanning
	})
	if selects(idx) {
		// Final element (no trailing comma), if non-empty.
		s2 := skipWS(ix.data, prev)
		if s2 < close {
			walk(prev, close, level+1, q+1)
		}
	}
}

// keyBefore extracts the attribute name whose colon sits at `colon`,
// scanning backwards over the (short) key string.
func keyBefore(data []byte, colon int) []byte {
	i := colon - 1
	for i >= 0 && isWS(data[i]) {
		i--
	}
	if i < 0 || data[i] != '"' {
		return nil
	}
	close := i
	i--
	for i >= 0 {
		if data[i] == '"' && !escapedAt(data, i) {
			return data[i+1 : close]
		}
		i--
	}
	return nil
}

// escapedAt reports whether data[i] is escaped by a backslash run.
func escapedAt(data []byte, i int) bool {
	n := 0
	for j := i - 1; j >= 0 && data[j] == '\\'; j-- {
		n++
	}
	return n%2 == 1
}

func skipWS(data []byte, i int) int {
	for i < len(data) && isWS(data[i]) {
		i++
	}
	return i
}

func lastNonWS(data []byte) int {
	i := len(data) - 1
	for i >= 0 && isWS(data[i]) {
		i--
	}
	return i
}

func trimEnd(data []byte, s, e int) int {
	for e > s && isWS(data[e-1]) {
		e--
	}
	return e
}

func isWS(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
