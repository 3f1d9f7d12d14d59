package core

import (
	"fmt"

	"jsonski/internal/automaton"
	"jsonski/internal/baseline/domparser"
	"jsonski/internal/jsonpath"
	"jsonski/internal/stream"
	"jsonski/internal/telemetry"
)

// SegmentedEngine evaluates paths the forward-streaming engines cannot
// finish alone: unions, negative indexes and bounds, backward slices,
// and descendant+filter mixes. The path is split at its SplitPoint; the
// streamable prefix runs through the DFA engine (or the NFA engine when
// it holds a descendant) with full fast-forwarding, and every span the
// prefix selects is handed to the reference evaluator for the deferred
// tail. All fast-forward charges come from the prefix; the tail is a
// DOM parse of the selected spans only, so the engine still skips
// everything the prefix proves irrelevant.
type SegmentedEngine struct {
	dfa     *Engine
	nfa     *NFAEngine
	tail    []jsonpath.Step
	tailAbs bool
}

// NewSegmentedEngine builds the engine; the path must have a split point
// (fully streamable paths belong to the DFA/NFA engines directly).
func NewSegmentedEngine(p *jsonpath.Path) (*SegmentedEngine, error) {
	k := p.SplitPoint()
	if k < 0 {
		return nil, fmt.Errorf("core: path is fully streamable; use the DFA or NFA engine")
	}
	tail := p.Steps[k:]
	se := &SegmentedEngine{tail: tail, tailAbs: jsonpath.StepsHaveAbsolute(tail)}
	prefix := p.Steps[:k]
	hasDesc := false
	for _, st := range prefix {
		if st.Kind == jsonpath.Descendant {
			hasDesc = true
		}
	}
	pp := &jsonpath.Path{Steps: prefix}
	if hasDesc {
		nfa, err := NewNFAEngine(pp)
		if err != nil {
			return nil, err
		}
		se.nfa = nfa
	} else if len(prefix) > 0 {
		se.dfa = NewEngine(automaton.New(pp))
	}
	return se, nil
}

// SetTrace binds (or with nil unbinds) an explain trace on the prefix
// engine. All fast-forward movements happen in the prefix; the deferred
// tail is a DOM walk that never moves the stream cursor, so the trace
// fully accounts for the run's skipping.
func (se *SegmentedEngine) SetTrace(t *telemetry.Trace) {
	switch {
	case se.nfa != nil:
		se.nfa.SetTrace(t)
	case se.dfa != nil:
		se.dfa.SetTrace(t)
	}
}

// Run evaluates the path over one record.
func (se *SegmentedEngine) Run(data []byte, emit EmitFunc) (Stats, error) {
	return se.eval(data, nil, 0, len(data), emit)
}

// RunIndexedWindow evaluates the path over the single JSON value in
// [lo, hi) of ix's buffer; emitted positions are absolute.
func (se *SegmentedEngine) RunIndexedWindow(ix *stream.Index, lo, hi int, emit EmitFunc) (Stats, error) {
	return se.eval(ix.Data(), ix, lo, hi, emit)
}

func (se *SegmentedEngine) eval(data []byte, ix *stream.Index, lo, hi int, emit EmitFunc) (Stats, error) {
	var (
		rootDoc *domparser.Doc
		matches int64
	)
	record := func() *domparser.Doc {
		if rootDoc == nil {
			d, err := domparser.ParseDoc(trimWS(data, lo, hi))
			if err != nil {
				d = &domparser.Doc{} // absent root: absolute refs select nothing
			}
			rootDoc = d
		}
		return rootDoc
	}
	// tailEval runs the deferred tail over one prefix-selected span.
	tailEval := func(vs, ve int) {
		d, err := domparser.ParseDoc(data[vs:ve])
		if err != nil {
			return
		}
		if se.tailAbs {
			d.Abs = record()
		}
		d.EvalSpans(se.tail, func(s2, e2 int) {
			matches++
			if emit != nil {
				emit(vs+s2, vs+e2)
			}
		})
	}
	var (
		st  Stats
		err error
	)
	switch {
	case se.nfa != nil:
		if ix != nil {
			st, err = se.nfa.RunIndexedWindow(ix, lo, hi, tailEval)
		} else {
			st, err = se.nfa.Run(data, tailEval)
		}
	case se.dfa != nil:
		if ix != nil {
			st, err = se.dfa.RunIndexedWindow(ix, lo, hi, tailEval)
		} else {
			st, err = se.dfa.Run(data, tailEval)
		}
	default:
		// Empty prefix: the record itself is the single candidate.
		if span := trimWS(data, lo, hi); len(span) > 0 {
			off := lo
			for off < hi && isSpaceByte(data[off]) {
				off++
			}
			tailEval(off, off+len(span))
		}
		st.InputBytes = int64(hi - lo)
	}
	st.Matches = matches
	return st, err
}

// trimWS returns data[lo:hi] with surrounding JSON whitespace removed.
func trimWS(data []byte, lo, hi int) []byte {
	for lo < hi && isSpaceByte(data[lo]) {
		lo++
	}
	for hi > lo && isSpaceByte(data[hi-1]) {
		hi--
	}
	return data[lo:hi]
}

func isSpaceByte(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
