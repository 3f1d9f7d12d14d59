// Package core implements JSONSki's recursive-descent streaming engine
// (paper §3, Algorithms 1 and 2): a recursive-descent parser over the
// bit-parallel stream that drives the query automaton and invokes the
// five groups of fast-forward functions wherever the match state proves a
// substructure irrelevant.
//
// The engine's recursion *is* the automaton's stack (paper §3.1): each
// driver frame holds the automaton state for its nesting level, so the
// [Key]/[Val]/[Ary-S]/[Ary-E] push/pop rules reduce to function call and
// return. The descent itself lives in driver.go, shared by every engine;
// this file supplies the single-state DFA policy.
package core

import (
	"fmt"

	"jsonski/internal/automaton"
	"jsonski/internal/baseline/domparser"
	"jsonski/internal/fastforward"
	"jsonski/internal/jsonpath"
	"jsonski/internal/stream"
)

// EmitFunc receives each match as a half-open byte range of the input.
// The engine guarantees Start < End and that data[Start:End] is the
// matched value with surrounding whitespace trimmed.
type EmitFunc func(start, end int)

// Stats summarizes one engine run.
type Stats struct {
	Matches        int64
	InputBytes     int64
	Skipped        fastforward.Stats
	WordsProcessed int
}

// FastForwardRatio returns the overall ratio of fast-forwarded bytes
// (paper Table 6, "Overall").
func (st Stats) FastForwardRatio() float64 {
	if st.InputBytes == 0 {
		return 0
	}
	return float64(st.Skipped.TotalSkipped()) / float64(st.InputBytes)
}

// GroupRatios returns the per-group fast-forward ratios.
func (st Stats) GroupRatios() [fastforward.NumGroups]float64 {
	per, _ := st.Skipped.Ratio(st.InputBytes)
	return per
}

// ScannedBytes returns the bytes the engine actually examined: input
// minus everything fast-forwarded over. Together with the per-group
// Skipped breakdown this is the run's full cost attribution — every
// input byte is either charged to a Table 1 group or was scanned.
// Clamped at zero: window runs can charge a movement that ends past
// the window's nominal input span.
func (st Stats) ScannedBytes() int64 {
	n := st.InputBytes - st.Skipped.TotalSkipped()
	if n < 0 {
		return 0
	}
	return n
}

// none is the accept payload of single-query policies: the span itself
// identifies the match, so nothing extra travels from matchKey to
// emitMatch.
type none = struct{}

// Engine evaluates one compiled query over byte buffers. An Engine is
// reusable but not safe for concurrent use; create one per goroutine.
type Engine struct {
	cursor
	aut *automaton.Automaton

	// filters holds the per-step probe runtimes when the query has
	// filter selectors (filter.go); nil otherwise — classic queries pay
	// nothing.
	filters []*filterRuntime

	// rootDoc caches the record's DOM within one run (absolute filter
	// references); absDoc, when set, overrides it — suffix engines
	// inherit the parent record's document.
	rootDoc *domparser.Doc
	absDoc  *domparser.Doc

	// DisableFastForward switches the engine to plain recursive-descent
	// streaming (paper Algorithm 1): every token is parsed and fed to the
	// automaton. Used by the ablation benchmarks.
	DisableFastForward bool

	// DisabledGroups selectively turns off individual fast-forward
	// groups (bit g-1 disables Gg) for the per-group ablation that
	// mirrors Table 6's uneven-contribution analysis:
	//   - G1 disabled: every attribute/element is examined regardless
	//     of the type the query expects;
	//   - G4 disabled: object scanning continues after a match instead
	//     of jumping to the object end;
	//   - G5 disabled: out-of-range array elements are skipped one by
	//     one instead of en bloc.
	// G2/G3 skips are load-bearing for the engine's position tracking
	// and cannot be disabled independently; use DisableFastForward for
	// the all-off ablation.
	DisabledGroups uint8
}

// groupOn reports whether fast-forward group g (1-based) is enabled.
func (e *Engine) groupOn(g int) bool {
	return e.DisabledGroups&(1<<(g-1)) == 0
}

// NewEngine creates an engine for the automaton.
func NewEngine(a *automaton.Automaton) *Engine {
	return &Engine{aut: a, filters: buildFilterRuntimes(a)}
}

// Run evaluates the query over a single JSON record, invoking emit for
// every match.
func (e *Engine) Run(data []byte, emit EmitFunc) (Stats, error) {
	e.prepare(data)
	return e.finish(emit, int64(len(data)))
}

// RunIndexedWindow evaluates the query over the single JSON value
// occupying the window [lo, hi) of ix's buffer: the stream borrows ix's
// materialized masks instead of classifying words on the fly. A whole
// index is the window [0, ix.Len()). Emitted positions are absolute
// within the full buffer. The caller must hold a reference on ix for
// the duration of the call.
func (e *Engine) RunIndexedWindow(ix *stream.Index, lo, hi int, emit EmitFunc) (Stats, error) {
	e.prepareWindow(ix, lo, hi)
	return e.finish(emit, int64(hi-lo))
}

// finish drives the prepared stream through the automaton and collects
// statistics.
func (e *Engine) finish(emit EmitFunc, inputBytes int64) (Stats, error) {
	e.begin(emit)
	e.rootDoc = nil
	err := e.run()
	return e.stats(inputBytes), err
}

func (e *Engine) run() error {
	s := e.s
	b, ok := s.SkipWS()
	if !ok {
		return fmt.Errorf("core: empty input")
	}
	if e.aut.StepCount() == 0 {
		// Bare "$": the whole record matches.
		start := s.Pos()
		switch b {
		case '{':
			if err := e.ff.GoOverObj(fastforward.G3); err != nil {
				return err
			}
		case '[':
			if err := e.ff.GoOverAry(fastforward.G3); err != nil {
				return err
			}
		default:
			s.SkipPrimitive()
		}
		e.emitSpan(start, s.Pos())
		return nil
	}
	if e.DisableFastForward {
		return e.runFull(b)
	}
	switch b {
	case '{':
		if e.aut.RootType() == jsonpath.Array {
			return nil // record type cannot match the query
		}
		return driveValue[int, int, none](&e.cursor, e, jsonpath.Object, 0, false)
	case '[':
		if e.aut.RootType() == jsonpath.Object {
			return nil
		}
		return driveValue[int, int, none](&e.cursor, e, jsonpath.Array, 0, false)
	default:
		return nil // primitive record cannot match a multi-step query
	}
}

// ---- stepper policy: a single automaton state descends the values ----

func (e *Engine) enterObject(q int) (int, jsonpath.ValueType, bool) {
	if !e.aut.IsObjectState(q) {
		// The pending step is an array step: nothing inside this object
		// can match. (Callers filter on root type, so this only happens
		// for Unknown-typed descents.)
		return q, jsonpath.Unknown, false
	}
	expected := e.aut.TypeExpected(q)
	if !e.groupOn(1) {
		expected = jsonpath.Unknown // G1 ablation: no type filtering
	}
	return q, expected, true
}

func (e *Engine) enterArray(q int) (int, jsonpath.ValueType, int, int, bool, bool) {
	if !e.aut.IsArrayState(q) {
		return q, jsonpath.Unknown, 0, 0, false, false
	}
	expected := e.aut.TypeExpected(q)
	if !e.groupOn(1) {
		expected = jsonpath.Unknown
	}
	lo, hi, constrained := e.aut.Range(q)
	return q, expected, lo, hi, constrained && e.groupOn(5), true
}

func (e *Engine) matchKey(q int, name []byte) (child int, acc none, act action, done bool) {
	q2, status := e.aut.MatchKey(q, name)
	switch status {
	case automaton.Unmatched:
		return 0, acc, actSkip, false
	case automaton.Accept:
		act = actOutput
	case automaton.Candidate:
		// Filter state: consume the span, then decide (filter.go).
		return q2, acc, actProbe, false
	default: // Matched: descend into the value
		child, act = q2, actDescend
	}
	// G4 applies only to named child steps: wildcard and filter states
	// can match any number of further attributes.
	done = e.groupOn(4) && e.aut.Step(q).Kind == jsonpath.Child
	return child, acc, act, done
}

func (e *Engine) matchIndex(q, idx int) (child int, acc none, act action) {
	q2, status := e.aut.MatchIndex(q, idx)
	switch status {
	case automaton.Unmatched:
		// Out-of-range element (G5 semantics).
		return 0, acc, actSkip
	case automaton.Accept:
		return 0, acc, actOutput
	case automaton.Candidate:
		return q2, acc, actProbe
	default:
		return q2, acc, actDescend
	}
}

func (e *Engine) emitMatch(_ none, start, end int) { e.emitSpan(start, end) }

func (e *Engine) stateID(q int) int { return q }
