// Package tape is the simdjson-class baseline: the two-stage
// preprocessing scheme of Langdale & Lemire (VLDB-J 2019) restated on the
// same stage-1 classifier as JSONSki (bits.Classify).
//
// Stage 1 scans the whole input with bit-parallel classification and
// materializes a structural index: the positions of every structural
// metacharacter and string quote. Stage 2 walks that index and builds a
// "tape" — a flat array of nodes with subtree-skip links, the moral
// equivalent of simdjson's tape. Queries then traverse the tape.
//
// Like simdjson (and unlike JSONSki), all of the input is indexed and
// materialized before the first query result can be produced, and the
// index + tape consume memory proportional to the input — the contrast
// measured in Figures 10–14 of the paper.
package tape

import (
	"fmt"

	"jsonski/internal/automaton"
	"jsonski/internal/baseline/domparser"
	"jsonski/internal/bits"
	"jsonski/internal/jsonpath"
)

// BuildIndex returns the positions of all structural metacharacters
// ({ } [ ] : ,) outside strings and of all unescaped quotes, ascending.
func BuildIndex(data []byte) []int32 {
	// Preallocate on the JSON-typical density of ~1 structural per 6-8
	// bytes; append grows it when the guess is short.
	out := make([]int32, 0, len(data)/6+8)
	var cls bits.Masks
	var ec bits.EscapeCarry
	var sc bits.StringCarry
	for base := 0; base < len(data); base += bits.WordSize {
		end := base + bits.WordSize
		if end > len(data) {
			end = len(data)
		}
		bits.Classify(&cls, data[base:end])
		quotes := cls.Quote &^ ec.Escaped(cls.Backslash)
		inStr := sc.InStringMask(quotes)
		m := (cls.LBrace | cls.RBrace | cls.LBracket | cls.RBracket |
			cls.Colon | cls.Comma) &^ inStr
		m |= quotes
		for m != 0 {
			out = append(out, int32(base+bits.TrailingZeros(m)))
			m &= m - 1
		}
	}
	return out
}

// Kind tags a tape node.
type Kind uint8

// Tape node kinds.
const (
	KindObject Kind = iota
	KindArray
	KindString
	KindPrimitive
)

// Node is one tape entry. Containers are followed by their descendants
// in document order; Next links to the entry just past the subtree, so a
// traversal can skip a value in O(1).
type Node struct {
	Kind             Kind
	KeyStart, KeyEnd int32 // member key span (quotes excluded); -1 for none
	ValStart, ValEnd int32 // value span in the input
	Next             int32 // index just past this subtree
}

// Tape is the stage-2 output for one record.
type Tape struct {
	Nodes []Node
	data  []byte
}

// FootprintBytes estimates the preprocessing memory this tape pins,
// for the memory-overhead experiment (Figure 13).
func (t *Tape) FootprintBytes() int64 {
	const nodeSize = 28
	return int64(len(t.Nodes)) * nodeSize
}

type builder struct {
	data []byte
	idx  []int32
	si   int // cursor into idx
	out  []Node
}

// Build runs stage 2: structural index to tape.
func Build(data []byte, idx []int32) (*Tape, error) {
	b := &builder{data: data, idx: idx, out: make([]Node, 0, len(idx)/2+4)}
	if b.si >= len(b.idx) {
		// No structural characters at all: a bare primitive record.
		vs, ve := primitiveSpan(data, 0, int32(len(data)))
		if vs >= ve {
			return nil, fmt.Errorf("tape: empty input")
		}
		b.out = append(b.out, Node{Kind: KindPrimitive, KeyStart: -1, KeyEnd: -1,
			ValStart: vs, ValEnd: ve, Next: 1})
		return &Tape{Nodes: b.out, data: data}, nil
	}
	if _, err := b.value(-1, -1); err != nil {
		return nil, err
	}
	return &Tape{Nodes: b.out, data: data}, nil
}

func isWS(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// value builds the tape for the value starting at the structural cursor.
// keyStart/keyEnd carry the member key span (-1 when none).
func (b *builder) value(keyStart, keyEnd int32) (int32, error) {
	if b.si >= len(b.idx) {
		return 0, fmt.Errorf("tape: unexpected end of structural index")
	}
	p := b.idx[b.si]
	self := int32(len(b.out))
	switch b.data[p] {
	case '{':
		b.out = append(b.out, Node{Kind: KindObject, KeyStart: keyStart, KeyEnd: keyEnd, ValStart: p})
		b.si++
		for {
			if b.si >= len(b.idx) {
				return 0, fmt.Errorf("tape: object at %d not closed", p)
			}
			q := b.idx[b.si]
			switch b.data[q] {
			case '}':
				b.si++
				b.out[self].ValEnd = q + 1
				b.out[self].Next = int32(len(b.out))
				return self, nil
			case ',':
				b.si++
				continue
			case '"':
				// member key: opening quote; closing quote is the next
				// indexed position (strings hide their metacharacters).
				if b.si+2 >= len(b.idx) {
					return 0, fmt.Errorf("tape: truncated member at %d", q)
				}
				closeQ := b.idx[b.si+1]
				colon := b.idx[b.si+2]
				if b.data[closeQ] != '"' || b.data[colon] != ':' {
					return 0, fmt.Errorf("tape: malformed member at %d", q)
				}
				b.si += 3
				if _, err := b.valueAfter(colon+1, q+1, closeQ); err != nil {
					return 0, err
				}
			default:
				return 0, fmt.Errorf("tape: unexpected %q in object at %d", b.data[q], q)
			}
		}
	case '[':
		b.out = append(b.out, Node{Kind: KindArray, KeyStart: keyStart, KeyEnd: keyEnd, ValStart: p})
		b.si++
		prev := p + 1 // input position just past the last separator
		for {
			if b.si >= len(b.idx) {
				return 0, fmt.Errorf("tape: array at %d not closed", p)
			}
			q := b.idx[b.si]
			switch b.data[q] {
			case ']', ',':
				// Any non-whitespace between the previous separator and
				// this one is a primitive element.
				if vs, ve := primitiveSpan(b.data, prev, q); vs < ve {
					idx := int32(len(b.out))
					b.out = append(b.out, Node{Kind: KindPrimitive, KeyStart: -1, KeyEnd: -1,
						ValStart: vs, ValEnd: ve, Next: idx + 1})
				}
				b.si++
				prev = q + 1
				if b.data[q] == ']' {
					b.out[self].ValEnd = q + 1
					b.out[self].Next = int32(len(b.out))
					return self, nil
				}
			case '{', '[', '"':
				child, err := b.value(-1, -1)
				if err != nil {
					return 0, err
				}
				prev = b.out[child].ValEnd
			default:
				return 0, fmt.Errorf("tape: unexpected %q in array at %d", b.data[q], q)
			}
		}
	case '"':
		if b.si+1 >= len(b.idx) || b.data[b.idx[b.si+1]] != '"' {
			return 0, fmt.Errorf("tape: unterminated string at %d", p)
		}
		closeQ := b.idx[b.si+1]
		b.si += 2
		b.out = append(b.out, Node{Kind: KindString, KeyStart: keyStart, KeyEnd: keyEnd,
			ValStart: p, ValEnd: closeQ + 1, Next: self + 1})
		return self, nil
	default:
		return 0, fmt.Errorf("tape: unexpected structural %q at %d", b.data[p], p)
	}
}

// valueAfter builds the value beginning after input position `from`
// (just past a ':'), attaching the key span.
func (b *builder) valueAfter(from, keyStart, keyEnd int32) (int32, error) {
	// The next indexed position either starts the value ('{', '[', '"')
	// or terminates a primitive (',', '}', ']').
	if b.si >= len(b.idx) {
		return 0, fmt.Errorf("tape: missing value at %d", from)
	}
	q := b.idx[b.si]
	switch b.data[q] {
	case '{', '[', '"':
		return b.value(keyStart, keyEnd)
	case ',', '}', ']':
		self := int32(len(b.out))
		vs, ve := primitiveSpan(b.data, from, q)
		if vs >= ve {
			return 0, fmt.Errorf("tape: empty value at %d", from)
		}
		b.out = append(b.out, Node{Kind: KindPrimitive, KeyStart: keyStart, KeyEnd: keyEnd,
			ValStart: vs, ValEnd: ve, Next: self + 1})
		return self, nil
	default:
		return 0, fmt.Errorf("tape: unexpected %q at %d", b.data[q], q)
	}
}

// primitiveSpan trims whitespace from [from, to).
func primitiveSpan(data []byte, from, to int32) (int32, int32) {
	for from < to && isWS(data[from]) {
		from++
	}
	for to > from && isWS(data[to-1]) {
		to--
	}
	return from, to
}

// Evaluator is a compiled query evaluated by index+tape traversal.
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

// Run indexes data, builds the tape, and traverses it; emit may be nil.
func (ev *Evaluator) Run(data []byte, emit func(start, end int)) (int64, error) {
	t, err := Preprocess(data)
	if err != nil {
		return 0, err
	}
	return ev.RunTape(t, emit)
}

// Preprocess runs both stages, returning the tape.
func Preprocess(data []byte) (*Tape, error) {
	return Build(data, BuildIndex(data))
}

// RunTape traverses an already-built tape (so benchmarks can separate
// preprocessing from querying).
func (ev *Evaluator) RunTape(t *Tape, emit func(start, end int)) (int64, error) {
	if len(t.Nodes) == 0 {
		return 0, nil
	}
	var count int64
	var rootDoc *domparser.Doc
	var walk func(n int32, q int)
	// Filters, unions, and descendants are not tape-native traversals;
	// such tails re-parse the (tape-delimited) value span through the
	// reference evaluator.
	refEval := func(node *Node, q int) {
		vs, ve := int(node.ValStart), int(node.ValEnd)
		d, err := domparser.ParseDoc(t.data[vs:ve])
		if err != nil {
			return
		}
		steps := ev.steps[q:]
		if jsonpath.StepsHaveAbsolute(steps) {
			if rootDoc == nil {
				root := &t.Nodes[0]
				rd, err := domparser.ParseDoc(t.data[root.ValStart:root.ValEnd])
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
	walk = func(n int32, q int) {
		node := &t.Nodes[n]
		if q == len(ev.steps) {
			count++
			if emit != nil {
				emit(int(node.ValStart), int(node.ValEnd))
			}
			return
		}
		st := ev.steps[q]
		switch st.Kind {
		case jsonpath.Child:
			if node.Kind != KindObject {
				return
			}
			for c := n + 1; c < node.Next; c = t.Nodes[c].Next {
				k := t.Nodes[c]
				if k.KeyStart >= 0 && automaton.KeyEqual(t.data[k.KeyStart:k.KeyEnd], st.Name) {
					walk(c, q+1)
					return // keys are unique
				}
			}
		case jsonpath.Wildcard:
			if node.Kind != KindObject && node.Kind != KindArray {
				return
			}
			for c := n + 1; c < node.Next; c = t.Nodes[c].Next {
				walk(c, q+1)
			}
		case jsonpath.Index, jsonpath.Slice:
			if node.Kind != KindArray {
				return
			}
			var kids []int32
			for c := n + 1; c < node.Next; c = t.Nodes[c].Next {
				kids = append(kids, c)
			}
			if st.Kind == jsonpath.Index {
				idx := st.Lo
				if idx < 0 {
					idx += len(kids)
				}
				if idx >= 0 && idx < len(kids) {
					walk(kids[idx], q+1)
				}
				return
			}
			lo, hi, stride := st.SliceBounds(len(kids))
			if stride > 0 {
				for i := lo; i < hi; i += stride {
					walk(kids[i], q+1)
				}
			} else {
				for i := lo; i > hi; i += stride {
					walk(kids[i], q+1)
				}
			}
		default: // Filter, Union, Descendant
			refEval(node, q)
		}
	}
	walk(0, 0)
	return count, nil
}

// Count is Run without an emit callback.
func (ev *Evaluator) Count(data []byte) (int64, error) {
	return ev.Run(data, nil)
}
