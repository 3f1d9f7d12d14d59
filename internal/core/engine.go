// Package core implements JSONSki's recursive-descent streaming engine
// (paper §3, Algorithms 1 and 2): a recursive-descent parser over the
// bit-parallel stream that drives the query automaton and invokes the
// five groups of fast-forward functions wherever the match state proves a
// substructure irrelevant.
//
// The engine's recursion *is* the automaton's stack (paper §3.1): each
// driver frame holds the automaton states live at its nesting level, so
// the [Key]/[Val]/[Ary-S]/[Ary-E] push/pop rules reduce to function call
// and return. The descent itself lives in driver.go, shared by every
// engine; this file supplies the policy of the one engine that runs
// every streamable path, linear or with a descendant step.
package core

import (
	"fmt"

	"jsonski/internal/automaton"
	"jsonski/internal/baseline/domparser"
	"jsonski/internal/bits"
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

// stateSet is the state the engine carries down the descent: a set of
// automaton states, bit q for state q. Bit StepCount() is the accept
// bit; it never travels down, since accept has no outgoing transitions.
type stateSet = uint64

// Engine evaluates one compiled query over byte buffers. An Engine is
// reusable but not safe for concurrent use; create one per goroutine.
//
// A path without a descendant step keeps exactly one state live, and
// the engine applies the paper's rules to it: G1 from the expected type,
// G4 after a named child matches, G5 from the index range, and filter
// probes. A descendant state stays live in every nested value, so a set
// of two or more states always holds one; its level is unknown (§5.1),
// so no G1, G4 or G5 applies to such a set. A lone descendant state
// reaches the same policy through the single-state rules: its expected
// type is Unknown, it is not a named child, and its range is open.
type Engine struct {
	cursor
	aut    *automaton.Automaton
	accept stateSet

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

// NewEngine creates an engine for the automaton, which must have at
// most jsonpath.MaxStreamSteps steps (Path.SplitPoint splits longer
// paths).
func NewEngine(a *automaton.Automaton) *Engine {
	if a.StepCount() > jsonpath.MaxStreamSteps {
		panic(fmt.Sprintf("core: %d steps exceed the state set", a.StepCount()))
	}
	return &Engine{aut: a, accept: 1 << a.StepCount(), filters: buildFilterRuntimes(a)}
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
		return driveValue[stateSet, stateSet, none](&e.cursor, e, jsonpath.Object, 1, false)
	case '[':
		if e.aut.RootType() == jsonpath.Object {
			return nil
		}
		return driveValue[stateSet, stateSet, none](&e.cursor, e, jsonpath.Array, 1, false)
	default:
		return nil // primitive record cannot match a multi-step query
	}
}

// ---- stepper policy: a set of automaton states descends the values ----

func (e *Engine) enterObject(set stateSet) (stateSet, jsonpath.ValueType, bool) {
	if set&(set-1) != 0 {
		return set, jsonpath.Unknown, true // holds a descendant: no G1
	}
	q := bits.TrailingZeros(set)
	if !e.aut.IsObjectState(q) {
		// The pending step is an array step: nothing inside this object
		// can match. (Callers filter on root type, so this only happens
		// for Unknown-typed descents.)
		return set, jsonpath.Unknown, false
	}
	expected := e.aut.TypeExpected(q)
	if !e.groupOn(1) {
		expected = jsonpath.Unknown // G1 ablation: no type filtering
	}
	return set, expected, true
}

func (e *Engine) enterArray(set stateSet) (stateSet, jsonpath.ValueType, int, int, bool, bool) {
	if set&(set-1) != 0 {
		return set, jsonpath.Unknown, 0, 0, false, true // no G1, no G5
	}
	q := bits.TrailingZeros(set)
	if !e.aut.IsArrayState(q) {
		return set, jsonpath.Unknown, 0, 0, false, false
	}
	expected := e.aut.TypeExpected(q)
	if !e.groupOn(1) {
		expected = jsonpath.Unknown
	}
	lo, hi, constrained := e.aut.Range(q)
	return set, expected, lo, hi, constrained && e.groupOn(5), true
}

func (e *Engine) matchKey(set stateSet, name []byte) (child stateSet, acc none, act action, done bool) {
	for s := set; s != 0; s &= s - 1 {
		q := bits.TrailingZeros(s)
		switch q2, status := e.aut.MatchKey(q, name); status {
		case automaton.Candidate:
			// Filter state: consume the span, then decide (filter.go).
			// SplitPoint keeps filters out of sets with a descendant.
			return 1 << q2, acc, actProbe, false
		case automaton.Matched, automaton.Accept:
			child |= 1 << q2
			// G4 applies only to a lone named child step: wildcard and
			// filter states can match any number of further attributes.
			done = set == 1<<q && e.aut.IsNamedChild(q) && e.groupOn(4)
		}
		if e.aut.IsDescendant(q) {
			child |= 1 << q
		}
	}
	child, act = e.dispatch(child)
	return child, acc, act, done
}

func (e *Engine) matchIndex(set stateSet, idx int) (child stateSet, acc none, act action) {
	for s := set; s != 0; s &= s - 1 {
		q := bits.TrailingZeros(s)
		switch q2, status := e.aut.MatchIndex(q, idx); status {
		case automaton.Candidate:
			return 1 << q2, acc, actProbe
		case automaton.Matched, automaton.Accept:
			child |= 1 << q2
		}
		if e.aut.IsDescendant(q) {
			child |= 1 << q
		}
	}
	child, act = e.dispatch(child)
	return child, acc, act
}

// dispatch turns a successor set into the driver action: the accept bit
// outputs, the other states descend, and both together do both. An
// empty set is a skip (G2 for an attribute, G5 for an element).
func (e *Engine) dispatch(next stateSet) (stateSet, action) {
	rest := next &^ e.accept
	switch {
	case next == rest && rest == 0:
		return 0, actSkip
	case next == rest:
		return rest, actDescend
	case rest == 0:
		return 0, actOutput
	default:
		return rest, actDescendOutput
	}
}

func (e *Engine) emitMatch(_ none, start, end int) { e.emitSpan(start, end) }

// stateID renders a single state as its number and a larger set as its
// bitmask, for explain-trace events.
func (e *Engine) stateID(set stateSet) int {
	if set&(set-1) == 0 {
		return bits.TrailingZeros(set)
	}
	return int(set)
}
