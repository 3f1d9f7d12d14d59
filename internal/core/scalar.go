package core

import (
	"fmt"

	"jsonski/internal/automaton"
	"jsonski/internal/baseline/domparser"
	"jsonski/internal/jsonpath"
)

// ScalarEngine is the second ablation of the paper's design: it keeps
// every fast-forward *decision* of Algorithm 2 (skip wrong-typed
// attributes, skip unmatched values, jump to the object end after a
// match, skip out-of-range elements) but implements every skip by
// walking the input byte by byte, the way a conventional parser would.
//
// Comparing ScalarEngine with Engine isolates the contribution of §4's
// bit-parallel interval algorithms from the contribution of §3's
// skipping logic; comparing it with the charstream baseline isolates the
// value of the skipping logic itself.
type ScalarEngine struct {
	aut  *automaton.Automaton
	data []byte
	pos  int
	emit EmitFunc

	matches int64
	skipped int64 // bytes fast-forwarded (scalar-ly)

	// rootDoc caches the record DOM within one run, for absolute ($)
	// references inside filter expressions. This ablation evaluates
	// filter candidates through the reference evaluator — the decision
	// mix still matches Engine (the candidate span is consumed by one
	// scalar skip); only the predicate machinery differs.
	rootDoc *domparser.Doc
}

// NewScalarEngine creates the ablation engine for an automaton.
func NewScalarEngine(a *automaton.Automaton) *ScalarEngine {
	return &ScalarEngine{aut: a}
}

// Run evaluates the query over one record.
func (e *ScalarEngine) Run(data []byte, emit EmitFunc) (Stats, error) {
	e.data, e.pos, e.emit, e.matches, e.skipped = data, 0, emit, 0, 0
	e.rootDoc = nil
	err := e.run()
	st := Stats{Matches: e.matches, InputBytes: int64(len(data))}
	// All scalar skips are reported as one bucket (G2 slot) — the
	// decision mix matches Engine; only the mechanism differs.
	st.Skipped.SkippedBytes[1] = e.skipped
	return st, err
}

func (e *ScalarEngine) run() error {
	e.ws()
	if e.pos >= len(e.data) {
		return fmt.Errorf("core: empty input")
	}
	if e.aut.IsAccept(0) {
		start := e.pos
		if err := e.skipValue(); err != nil {
			return err
		}
		e.match(start, e.pos)
		return nil
	}
	switch e.data[e.pos] {
	case '{':
		if e.aut.RootType(0) == jsonpath.Array {
			return nil
		}
		return e.object(0)
	case '[':
		if e.aut.RootType(0) == jsonpath.Object {
			return nil
		}
		return e.array(0)
	default:
		return nil
	}
}

func (e *ScalarEngine) match(start, end int) {
	e.matches++
	if e.emit != nil {
		e.emit(0, start, end)
	}
}

func (e *ScalarEngine) ws() {
	for e.pos < len(e.data) {
		switch e.data[e.pos] {
		case ' ', '\t', '\n', '\r':
			e.pos++
		default:
			return
		}
	}
}

func (e *ScalarEngine) object(q int) error {
	e.pos++ // '{'
	if !e.aut.IsObjectState(q) {
		return e.toObjEnd()
	}
	expected := e.aut.TypeExpected(q)
	unique := e.aut.IsNamedChild(q)
	for {
		e.ws()
		if e.pos >= len(e.data) {
			return fmt.Errorf("core: EOF inside object")
		}
		switch e.data[e.pos] {
		case '}':
			e.pos++
			return nil
		case ',':
			e.pos++
			continue
		case '"':
		default:
			return fmt.Errorf("core: expected key at %d", e.pos)
		}
		keyStart := e.pos
		if err := e.skipString(); err != nil {
			return err
		}
		key := e.data[keyStart+1 : e.pos-1]
		e.ws()
		if e.pos >= len(e.data) || e.data[e.pos] != ':' {
			return fmt.Errorf("core: expected ':' at %d", e.pos)
		}
		e.pos++
		e.ws()
		if e.pos >= len(e.data) {
			return fmt.Errorf("core: missing value at %d", e.pos)
		}
		vt := jsonpath.TypeOfByte(e.data[e.pos])
		// G1 decision: wrong-typed attribute — skip without matching.
		if !expected.Admits(vt) {
			if err := e.skipValueCounted(); err != nil {
				return err
			}
			continue
		}
		q2, status := e.aut.MatchKey(q, key)
		switch status {
		case automaton.Unmatched: // G2 decision
			if err := e.skipValueCounted(); err != nil {
				return err
			}
		case automaton.Accept: // G3 decision
			start := e.pos
			if err := e.skipValueCounted(); err != nil {
				return err
			}
			e.match(start, e.pos)
		case automaton.Candidate: // filter state: consume, then decide
			start := e.pos
			if err := e.skipValueCounted(); err != nil {
				return err
			}
			if err := e.probeCandidate(q2, start, e.pos); err != nil {
				return err
			}
		default: // Matched: descend
			if err := e.descend(vt, q2); err != nil {
				return err
			}
		}
		if status != automaton.Unmatched && unique {
			return e.toObjEnd() // G4 decision
		}
	}
}

func (e *ScalarEngine) array(q int) error {
	e.pos++ // '['
	if !e.aut.IsArrayState(q) {
		return e.toAryEnd()
	}
	lo, hi, constrained := e.aut.Range(q)
	expected := e.aut.TypeExpected(q)
	idx := 0
	for {
		e.ws()
		if e.pos >= len(e.data) {
			return fmt.Errorf("core: EOF inside array")
		}
		switch e.data[e.pos] {
		case ']':
			e.pos++
			return nil
		case ',':
			e.pos++
			idx++
			continue
		}
		if constrained && idx >= hi {
			return e.toAryEnd() // G5 decision
		}
		vt := jsonpath.TypeOfByte(e.data[e.pos])
		// G5/G1 decisions: out of range, or wrong type in range.
		if (constrained && idx < lo) || !expected.Admits(vt) {
			if err := e.skipValueCounted(); err != nil {
				return err
			}
			continue
		}
		q2, status := e.aut.MatchIndex(q, idx)
		switch status {
		case automaton.Unmatched:
			if err := e.skipValueCounted(); err != nil {
				return err
			}
		case automaton.Accept:
			start := e.pos
			if err := e.skipValueCounted(); err != nil {
				return err
			}
			e.match(start, e.pos)
		case automaton.Candidate:
			start := e.pos
			if err := e.skipValueCounted(); err != nil {
				return err
			}
			if err := e.probeCandidate(q2, start, e.pos); err != nil {
				return err
			}
		default:
			if err := e.descend(vt, q2); err != nil {
				return err
			}
		}
	}
}

// probeCandidate decides a filter candidate through the reference
// evaluator: parse the consumed span, test the predicate, and — when the
// filter is not the final step — run the remaining steps over the same
// DOM, shifting emitted spans into record coordinates.
func (e *ScalarEngine) probeCandidate(child, start, end int) error {
	doc, err := domparser.ParseDoc(e.data[start:end])
	if err != nil {
		return nil // malformed candidate selects nothing
	}
	st := e.aut.Step(child - 1)
	suffix := suffixSteps(e.aut, child)
	if st.Filter.HasAbsolute() || suffixHasAbsolute(suffix) {
		doc.Abs = e.recordDoc()
	}
	if !doc.Holds(st.Filter, doc.Root) {
		return nil
	}
	if e.aut.IsAccept(child) {
		e.match(start, end)
		return nil
	}
	doc.EvalSpans(suffix, func(s2, e2 int) { e.match(start+s2, start+e2) })
	return nil
}

// recordDoc lazily parses the whole record for absolute references.
func (e *ScalarEngine) recordDoc() *domparser.Doc {
	if e.rootDoc == nil {
		d, err := domparser.ParseDoc(e.data)
		if err != nil {
			d = &domparser.Doc{} // absent root: absolute refs select nothing
		}
		e.rootDoc = d
	}
	return e.rootDoc
}

func (e *ScalarEngine) descend(vt jsonpath.ValueType, q2 int) error {
	switch vt {
	case jsonpath.Object:
		return e.object(q2)
	case jsonpath.Array:
		return e.array(q2)
	default:
		return e.skipValueCounted()
	}
}

// skipValueCounted is a scalar skip charged to the fast-forward counter.
func (e *ScalarEngine) skipValueCounted() error {
	start := e.pos
	err := e.skipValue()
	e.skipped += int64(e.pos - start)
	return err
}

// skipValue walks past one value byte by byte.
func (e *ScalarEngine) skipValue() error {
	switch e.data[e.pos] {
	case '{':
		return e.skipContainer('{', '}')
	case '[':
		return e.skipContainer('[', ']')
	case '"':
		return e.skipString()
	default:
		for e.pos < len(e.data) {
			switch e.data[e.pos] {
			case ',', '}', ']', ' ', '\t', '\n', '\r':
				return nil
			}
			e.pos++
		}
		return nil
	}
}

func (e *ScalarEngine) skipContainer(open, close byte) error {
	depth := 0
	for e.pos < len(e.data) {
		switch e.data[e.pos] {
		case '"':
			if err := e.skipString(); err != nil {
				return err
			}
			continue
		case open:
			depth++
		case close:
			depth--
			if depth == 0 {
				e.pos++
				return nil
			}
		}
		e.pos++
	}
	return fmt.Errorf("core: unbalanced %q at EOF", open)
}

func (e *ScalarEngine) skipString() error {
	e.pos++
	for e.pos < len(e.data) {
		switch e.data[e.pos] {
		case '\\':
			e.pos += 2
		case '"':
			e.pos++
			return nil
		default:
			e.pos++
		}
	}
	return fmt.Errorf("core: unterminated string")
}

// toObjEnd / toAryEnd walk to the end of the current container scalar-ly
// (the G4/G5 movements).
func (e *ScalarEngine) toObjEnd() error { return e.toEnd('{', '}') }
func (e *ScalarEngine) toAryEnd() error { return e.toEnd('[', ']') }

func (e *ScalarEngine) toEnd(open, close byte) error {
	start := e.pos
	depth := 1
	for e.pos < len(e.data) {
		switch e.data[e.pos] {
		case '"':
			if err := e.skipString(); err != nil {
				return err
			}
			continue
		case open:
			depth++
		case close:
			depth--
			if depth == 0 {
				e.pos++
				e.skipped += int64(e.pos - start)
				return nil
			}
		}
		e.pos++
	}
	return fmt.Errorf("core: unbalanced %q at EOF", open)
}
