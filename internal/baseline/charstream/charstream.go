// Package charstream is the JPStream-class baseline: a character-by-
// character streaming JSONPath evaluator driven by a dual-stack pushdown
// automaton (paper §2, Figure 4). It examines every input byte exactly
// once, maintains a syntax stack (object/array nesting) and a query stack
// (automaton state per level), and uses no bitwise or SIMD parallelism —
// the processing style whose cost motivates JSONSki's fast-forwarding.
package charstream

import (
	"fmt"

	"jsonski/internal/automaton"
	"jsonski/internal/baseline/domparser"
	"jsonski/internal/jsonpath"
)

// Evaluator is a compiled query evaluated by character-level streaming.
// It is immutable and safe for concurrent use.
type Evaluator struct {
	aut *automaton.Automaton
}

// New compiles the evaluator for a path.
func New(p *jsonpath.Path) *Evaluator {
	return &Evaluator{aut: automaton.New(p)}
}

// Compile parses and compiles in one step. It rejects the steps this
// one-pass automaton cannot evaluate: descendants, which need a state
// that stays live at every level, and the deferred selectors (unions,
// negative indexes or bounds, backward slices), which need the container
// length or per-selector output order.
func Compile(expr string) (*Evaluator, error) {
	p, err := jsonpath.Parse(expr)
	if err != nil {
		return nil, err
	}
	for i := range p.Steps {
		if st := &p.Steps[i]; st.Kind == jsonpath.Descendant || !st.Streamable() {
			return nil, fmt.Errorf("charstream: step %d (%s) of %q cannot be evaluated in one pass", i, st.Kind, expr)
		}
	}
	return New(p), nil
}

// scanner is the per-run mutable state. The Go call stack of object()
// and array() plays the role of JPStream's syntax+query stacks.
type scanner struct {
	data  []byte
	pos   int
	aut   *automaton.Automaton
	emit  func(start, end int)
	count int64

	// rootDoc caches the record DOM for absolute ($) references inside
	// filter predicates. Filter candidates are decided by the reference
	// evaluator over the consumed span — in character here, since this
	// baseline examines every byte anyway.
	rootDoc *domparser.Doc
}

// Run streams data, invoking emit (which may be nil) for each match, and
// returns the match count.
func (ev *Evaluator) Run(data []byte, emit func(start, end int)) (int64, error) {
	sc := &scanner{data: data, aut: ev.aut, emit: emit}
	if err := sc.run(); err != nil {
		return sc.count, err
	}
	return sc.count, nil
}

// Count is Run without an emit callback.
func (ev *Evaluator) Count(data []byte) (int64, error) {
	return ev.Run(data, nil)
}

func (sc *scanner) run() error {
	sc.skipWS()
	if sc.pos >= len(sc.data) {
		return fmt.Errorf("charstream: empty input")
	}
	if sc.aut.IsAccept(0) {
		start := sc.pos
		if err := sc.skipValue(); err != nil {
			return err
		}
		sc.match(start, sc.pos)
		return nil
	}
	switch sc.data[sc.pos] {
	case '{':
		return sc.object(0, true)
	case '[':
		return sc.array(0, true)
	default:
		return sc.skipValue() // primitive record: no match possible
	}
}

func (sc *scanner) match(start, end int) {
	sc.count++
	if sc.emit != nil {
		sc.emit(start, end)
	}
}

func (sc *scanner) skipWS() {
	for sc.pos < len(sc.data) {
		switch sc.data[sc.pos] {
		case ' ', '\t', '\n', '\r':
			sc.pos++
		default:
			return
		}
	}
}

// object consumes an object. live indicates whether state q can still
// progress; dead subtrees are still parsed in full (that is the point of
// this baseline) but never match.
func (sc *scanner) object(q int, live bool) error {
	sc.pos++ // '{'
	for {
		sc.skipWS()
		if sc.pos >= len(sc.data) {
			return fmt.Errorf("charstream: EOF inside object")
		}
		switch sc.data[sc.pos] {
		case '}':
			sc.pos++
			return nil
		case ',':
			sc.pos++
			continue
		case '"':
		default:
			return fmt.Errorf("charstream: expected key at %d, got %q", sc.pos, sc.data[sc.pos])
		}
		keyStart := sc.pos
		if err := sc.skipString(); err != nil {
			return err
		}
		key := sc.data[keyStart+1 : sc.pos-1]
		sc.skipWS()
		if sc.pos >= len(sc.data) || sc.data[sc.pos] != ':' {
			return fmt.Errorf("charstream: expected ':' at %d", sc.pos)
		}
		sc.pos++
		sc.skipWS()
		q2, status := q, automaton.Unmatched
		if live {
			q2, status = sc.aut.MatchKey(q, key)
		}
		start := sc.pos
		if status == automaton.Candidate {
			if err := sc.skipValue(); err != nil {
				return err
			}
			sc.probeCandidate(q2, start, sc.pos)
			continue
		}
		if err := sc.value(q2, status == automaton.Matched); err != nil {
			return err
		}
		if status == automaton.Accept {
			sc.match(start, sc.pos)
		}
	}
}

func (sc *scanner) array(q int, live bool) error {
	sc.pos++ // '['
	idx := 0
	for {
		sc.skipWS()
		if sc.pos >= len(sc.data) {
			return fmt.Errorf("charstream: EOF inside array")
		}
		switch sc.data[sc.pos] {
		case ']':
			sc.pos++
			return nil
		case ',':
			sc.pos++
			idx++
			continue
		}
		q2, status := q, automaton.Unmatched
		if live {
			q2, status = sc.aut.MatchIndex(q, idx)
		}
		start := sc.pos
		if status == automaton.Candidate {
			if err := sc.skipValue(); err != nil {
				return err
			}
			sc.probeCandidate(q2, start, sc.pos)
			continue
		}
		if err := sc.value(q2, status == automaton.Matched); err != nil {
			return err
		}
		if status == automaton.Accept {
			sc.match(start, sc.pos)
		}
	}
}

// probeCandidate decides a filter candidate: parse the consumed span,
// test the predicate, and run any remaining steps over the same DOM.
func (sc *scanner) probeCandidate(child, start, end int) {
	doc, err := domparser.ParseDoc(sc.data[start:end])
	if err != nil {
		return // malformed candidate selects nothing
	}
	st := sc.aut.Step(child - 1)
	var suffix []jsonpath.Step
	needAbs := st.Filter.HasAbsolute()
	for i := child; !sc.aut.IsAccept(i); i++ {
		s := sc.aut.Step(i)
		suffix = append(suffix, s)
		if s.Kind == jsonpath.Filter && s.Filter.HasAbsolute() {
			needAbs = true
		}
	}
	if needAbs {
		sc.ensureRootDoc()
		doc.Abs = sc.rootDoc
	}
	if !doc.Holds(st.Filter, doc.Root) {
		return
	}
	if len(suffix) == 0 {
		sc.match(start, end)
		return
	}
	doc.EvalSpans(suffix, func(s2, e2 int) { sc.match(start+s2, start+e2) })
}

func (sc *scanner) ensureRootDoc() {
	if sc.rootDoc == nil {
		d, err := domparser.ParseDoc(sc.data)
		if err != nil {
			d = &domparser.Doc{} // absent root: absolute refs select nothing
		}
		sc.rootDoc = d
	}
}

// value consumes one value of any type, matching against q2 when live.
func (sc *scanner) value(q2 int, live bool) error {
	switch sc.data[sc.pos] {
	case '{':
		return sc.object(q2, live)
	case '[':
		return sc.array(q2, live)
	case '"':
		return sc.skipString()
	default:
		return sc.skipPrimitive()
	}
}

// skipValue consumes one value without matching.
func (sc *scanner) skipValue() error {
	return sc.value(0, false)
}

func (sc *scanner) skipString() error {
	sc.pos++ // opening quote
	for sc.pos < len(sc.data) {
		switch sc.data[sc.pos] {
		case '\\':
			sc.pos += 2
		case '"':
			sc.pos++
			return nil
		default:
			sc.pos++
		}
	}
	return fmt.Errorf("charstream: unterminated string")
}

func (sc *scanner) skipPrimitive() error {
	for sc.pos < len(sc.data) {
		switch sc.data[sc.pos] {
		case ',', '}', ']', ' ', '\t', '\n', '\r':
			return nil
		default:
			sc.pos++
		}
	}
	return nil
}
