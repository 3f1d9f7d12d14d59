// Package core implements JSONSki's recursive-descent streaming engine
// (paper §3, Algorithms 1 and 2): a recursive-descent parser over the
// bit-parallel stream that drives the query automaton and invokes the
// five groups of fast-forward functions wherever the match state proves a
// substructure irrelevant.
//
// The engine's recursion *is* the automaton's stack (paper §3.1): each
// frame of the descent holds the automaton states live at its nesting
// level, so the [Key]/[Val]/[Ary-S]/[Ary-E] push/pop rules reduce to
// function call and return. The descent itself lives in driver.go; this
// file holds the one engine that runs every streamable path, linear or
// with a descendant step, and every group of a query set's shared
// members.
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

// EmitFunc receives each match as a half-open byte range of the input,
// with the index of the automaton path that selected it (0 for a
// one-path engine). The engine guarantees Start < End and that
// data[Start:End] is the matched value with surrounding whitespace
// trimmed.
type EmitFunc func(member, start, end int)

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
// Clamped at zero: filter probes charge the bytes they re-scan, so the
// charges can exceed the input (DESIGN §5f).
func (st Stats) ScannedBytes() int64 {
	n := st.InputBytes - st.Skipped.TotalSkipped()
	if n < 0 {
		return 0
	}
	return n
}

// stateSet is the state the engine carries down the descent: a set of
// automaton states, bit q for state q. Accept bits never travel down,
// since an accept state has no outgoing transitions.
type stateSet = uint64

// Engine evaluates a compiled automaton — one path, or several paths
// numbered in one state space — over byte buffers. An Engine is
// reusable but not safe for concurrent use; create one per goroutine.
//
// The fast-forward rules read the set of live states through per-state
// masks (driver.go). One live state gets the paper's rules for its step.
// A descendant state stays live in every nested value and expects no
// type, is not a named child and has no range, so no G1, G4 or G5
// applies to a set that holds one (§5.1).
type Engine struct {
	Navigator
	aut *automaton.Automaton

	// Per-state masks, bit q for state q.
	accept     stateSet // accept states
	objStates  stateSet // states that select object members
	aryStates  stateSet // states that select array elements
	named      stateSet // named-child states (G4)
	descendant stateSet // descendant states, which stay live below
	// Start states a record's first byte admits: an object, an array,
	// or a primitive, which only a bare `$` path (its start is its
	// accept state) can match.
	objRoots, aryRoots, primRoots stateSet

	out     EmitFunc // nil counts only
	matches int64

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
// most automaton.MaxStates states (Path.SplitPoint splits longer paths,
// and a query set packs its members into groups that fit).
func NewEngine(a *automaton.Automaton) *Engine {
	if a.States() > automaton.MaxStates {
		panic(fmt.Sprintf("core: %d states exceed the state set", a.States()))
	}
	mask := func(is func(q int) bool) (m stateSet) {
		for q := 0; q < a.States(); q++ {
			if is(q) {
				m |= 1 << q
			}
		}
		return m
	}
	e := &Engine{
		aut:        a,
		accept:     mask(a.IsAccept),
		objStates:  mask(a.IsObjectState),
		aryStates:  mask(a.IsArrayState),
		named:      mask(a.IsNamedChild),
		descendant: mask(a.IsDescendant),
		filters:    buildFilterRuntimes(a),
	}
	for i := 0; i < a.Paths(); i++ {
		bit := stateSet(1) << a.Start(i)
		if a.RootType(i) != jsonpath.Array {
			e.objRoots |= bit
		}
		if a.RootType(i) != jsonpath.Object {
			e.aryRoots |= bit
		}
	}
	e.primRoots = e.objRoots & e.accept // bare `$` paths admit any root
	return e
}

// Run evaluates the query over a single JSON record, invoking emit for
// every match.
func (e *Engine) Run(data []byte, emit EmitFunc) (Stats, error) {
	e.prepare(data)
	return e.finish(emit)
}

// RunIndexed evaluates the query over the single JSON value in ix's
// buffer: the stream borrows ix's materialized masks instead of
// classifying words on the fly. The caller must hold a reference on ix
// for the duration of the call.
func (e *Engine) RunIndexed(ix *stream.Index, emit EmitFunc) (Stats, error) {
	e.prepareIndexed(ix)
	return e.finish(emit)
}

// finish drives the prepared stream through the automaton and collects
// statistics.
func (e *Engine) finish(emit EmitFunc) (Stats, error) {
	e.out, e.matches, e.rootDoc = emit, 0, nil
	err := e.run()
	st := e.Stats()
	st.Matches = e.matches
	return st, err
}

// run evaluates the record under the cursor. The start states its first
// byte admits descend into it, and accept states among them (bare `$`
// paths) output the whole record after the descent. With no state to
// descend, the record is output wholesale (G3) or, when nothing at all
// is live, left unread.
func (e *Engine) run() error {
	s := e.s
	b, ok := s.SkipWS()
	if !ok {
		return fmt.Errorf("core: empty input")
	}
	set := e.primRoots
	switch b {
	case '{':
		set = e.objRoots
	case '[':
		set = e.aryRoots
	}
	child, acc := set&^e.accept, set&e.accept
	start := s.Pos()
	var err error
	switch {
	case child == 0 && acc == 0:
		return nil // the record's type cannot match any path
	case child == 0:
		switch b {
		case '{':
			err = e.ff.GoOverObj(fastforward.G3)
		case '[':
			err = e.ff.GoOverAry(fastforward.G3)
		default:
			s.SkipPrimitive()
		}
	case e.DisableFastForward:
		err = e.fullValue(b, child)
	default:
		err = e.driveValue(jsonpath.TypeOfByte(b), child, false)
	}
	if err == nil && acc != 0 {
		e.emitMatch(acc, start, s.Pos())
	}
	return err
}

// emitMatch reports one span for every accept state in acc, each under
// the index of its path.
func (e *Engine) emitMatch(acc stateSet, start, end int) {
	for ; acc != 0; acc &= acc - 1 {
		e.emitMember(e.aut.PathOf(bits.TrailingZeros(acc)), start, end)
	}
}

// emitMember reports one span of path member.
func (e *Engine) emitMember(member, start, end int) {
	e.matches++
	if e.out != nil {
		e.out(member, start, end)
	}
}

// stateID renders a single state as its number and a larger set as its
// bitmask, for explain-trace events.
func stateID(set stateSet) int {
	if set&(set-1) == 0 {
		return bits.TrailingZeros(set)
	}
	return int(set)
}
