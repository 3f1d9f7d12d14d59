package core

import (
	"jsonski/internal/automaton"
	"jsonski/internal/baseline/domparser"
	"jsonski/internal/jsonpath"
	"jsonski/internal/stream"
	"jsonski/internal/telemetry"
)

// SegmentedEngine evaluates paths the streaming engine cannot finish
// alone: unions, negative indexes and bounds, backward slices, a second
// descendant step, descendant+filter mixes, and paths longer than the
// state set. The path is split at its SplitPoint; the streamable prefix
// runs through the engine with full fast-forwarding, and every span the
// prefix selects is handed to the reference evaluator for the deferred
// tail. All fast-forward charges come from the prefix; the tail is a DOM
// parse of the selected spans only, so the engine still skips
// everything the prefix proves irrelevant.
type SegmentedEngine struct {
	prefix  *Engine // nil when the path splits at its first step
	tail    []jsonpath.Step
	tailAbs bool
}

// NewSegmentedEngine builds the engine; the path must have a split point
// (fully streamable paths belong to the engine directly).
func NewSegmentedEngine(p *jsonpath.Path) *SegmentedEngine {
	k := p.SplitPoint()
	if k < 0 {
		panic("core: path is fully streamable; use the engine")
	}
	tail := p.Steps[k:]
	se := &SegmentedEngine{tail: tail, tailAbs: jsonpath.StepsHaveAbsolute(tail)}
	if k > 0 {
		se.prefix = NewEngine(automaton.New(&jsonpath.Path{Steps: p.Steps[:k]}))
	}
	return se
}

// SetTrace binds (or with nil unbinds) an explain trace on the prefix
// engine. All fast-forward movements happen in the prefix; the deferred
// tail is a DOM walk that never moves the stream cursor, so the trace
// fully accounts for the run's skipping.
func (se *SegmentedEngine) SetTrace(t *telemetry.Trace) {
	if se.prefix != nil {
		se.prefix.SetTrace(t)
	}
}

// Run evaluates the path over one record.
func (se *SegmentedEngine) Run(data []byte, emit EmitFunc) (Stats, error) {
	return se.eval(data, nil, emit)
}

// RunIndexed evaluates the path over the single JSON value in ix's
// buffer.
func (se *SegmentedEngine) RunIndexed(ix *stream.Index, emit EmitFunc) (Stats, error) {
	return se.eval(ix.Data(), ix, emit)
}

func (se *SegmentedEngine) eval(data []byte, ix *stream.Index, emit EmitFunc) (Stats, error) {
	var (
		rootDoc *domparser.Doc
		matches int64
	)
	lo, hi := trimWS(data)
	record := func() *domparser.Doc {
		if rootDoc == nil {
			d, err := domparser.ParseDoc(data[lo:hi])
			if err != nil {
				d = &domparser.Doc{} // absent root: absolute refs select nothing
			}
			rootDoc = d
		}
		return rootDoc
	}
	// tailEval runs the deferred tail over one prefix-selected span.
	tailEval := func(_, vs, ve int) {
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
				emit(0, vs+s2, vs+e2)
			}
		})
	}
	var (
		st  Stats
		err error
	)
	switch {
	case se.prefix != nil && ix != nil:
		st, err = se.prefix.RunIndexed(ix, tailEval)
	case se.prefix != nil:
		st, err = se.prefix.Run(data, tailEval)
	default:
		// Empty prefix: the record itself is the single candidate.
		if lo < hi {
			tailEval(0, lo, hi)
		}
		st.InputBytes = int64(len(data))
	}
	st.Matches = matches
	return st, err
}

// trimWS returns the bounds of data with surrounding JSON whitespace
// removed.
func trimWS(data []byte) (lo, hi int) {
	lo, hi = 0, len(data)
	for lo < hi && isSpaceByte(data[lo]) {
		lo++
	}
	for hi > lo && isSpaceByte(data[hi-1]) {
		hi--
	}
	return lo, hi
}

func isSpaceByte(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
