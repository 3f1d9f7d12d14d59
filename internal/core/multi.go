package core

import (
	"fmt"

	"jsonski/internal/automaton"
	"jsonski/internal/fastforward"
	"jsonski/internal/jsonpath"
	"jsonski/internal/stream"
)

// MultiEngine evaluates several path queries in one streaming pass,
// sharing the traversal and fast-forwarding only what *every* live query
// agrees is irrelevant:
//
//   - G1 type filtering applies when all live queries expect the same
//     container type;
//   - G2 value skipping applies when no live query matched an attribute;
//   - G4 object-end skipping applies once every live query has matched
//     its (unique) attribute at this level;
//   - G5 element-range skipping applies to the union of the live
//     queries' index ranges.
//
// This realizes the paper's remark (§5.1) that developers can exploit
// the fast-forward functions beyond single-query evaluation. The engine
// is a stepper policy over the shared driver: the descent state is a
// vector of automaton states, one per query.
type MultiEngine struct {
	cursor
	auts []*automaton.Automaton
	emit MultiEmitFunc
}

// MultiEmitFunc receives each match with the index of the query that
// produced it.
type MultiEmitFunc func(query int, start, end int)

// NewMultiEngine creates an engine over the given automata.
func NewMultiEngine(auts []*automaton.Automaton) *MultiEngine {
	return &MultiEngine{auts: auts}
}

// states holds one automaton state per query; dead marks queries that can
// no longer match in the current subtree.
type states []int32

const deadState = int32(-1)

// Run evaluates all queries over one record.
func (e *MultiEngine) Run(data []byte, emit MultiEmitFunc) (Stats, error) {
	e.prepare(data)
	return e.finish(emit, int64(len(data)))
}

// RunIndexed evaluates all queries over one record through a prebuilt
// structural index: the shared pass borrows ix's masks, so the one
// traversal the queries share also skips the per-word classification.
// The caller must hold a reference on ix for the duration of the call.
func (e *MultiEngine) RunIndexed(ix *stream.Index, emit MultiEmitFunc) (Stats, error) {
	e.prepareIndexed(ix)
	return e.finish(emit, int64(ix.Len()))
}

func (e *MultiEngine) finish(emit MultiEmitFunc, inputBytes int64) (Stats, error) {
	e.begin(nil)
	e.emit = emit
	err := e.run()
	return e.stats(inputBytes), err
}

func (e *MultiEngine) run() error {
	s := e.s
	b, ok := s.SkipWS()
	if !ok {
		return fmt.Errorf("core: empty input")
	}
	st := make(states, len(e.auts))
	anyZeroStep := false
	for i, a := range e.auts {
		if a.StepCount() == 0 {
			anyZeroStep = true
			st[i] = deadState
			continue
		}
		// Kill queries whose root type contradicts the record.
		switch {
		case b == '{' && a.RootType() == jsonpath.Array:
			st[i] = deadState
		case b == '[' && a.RootType() == jsonpath.Object:
			st[i] = deadState
		case b != '{' && b != '[':
			st[i] = deadState
		}
	}
	if anyZeroStep {
		// "$" queries match the whole record; handled via span capture.
		start := s.Pos()
		if err := e.consumeValue(b, st); err != nil {
			return err
		}
		end := s.Pos()
		for i, a := range e.auts {
			if a.StepCount() == 0 {
				e.emitQuery(i, start, end)
			}
		}
		return nil
	}
	return e.consumeValue(b, st)
}

// consumeValue evaluates the root value against the state vector,
// consuming it entirely.
func (e *MultiEngine) consumeValue(b byte, st states) error {
	switch b {
	case '{':
		return driveValue[states, *multiFrame, []int](&e.cursor, e, jsonpath.Object, st, false)
	case '[':
		return driveValue[states, *multiFrame, []int](&e.cursor, e, jsonpath.Array, st, false)
	default:
		// primitives cannot be descended into
		e.s.SkipPrimitive()
		return nil
	}
}

func (e *MultiEngine) emitQuery(query, start, end int) {
	e.matches++
	if e.emit != nil {
		e.emit(query, start, end)
	}
}

// combinedExpected returns the container type every live query expects,
// or Unknown when they disagree (or none is live).
func (e *MultiEngine) combinedExpected(st states) jsonpath.ValueType {
	combined := jsonpath.ValueType(0xFF) // sentinel: none seen yet
	for i, q := range st {
		if q == deadState {
			continue
		}
		t := e.auts[i].TypeExpected(int(q))
		if combined == 0xFF {
			combined = t
		} else if combined != t {
			return jsonpath.Unknown
		}
	}
	if combined == 0xFF {
		return jsonpath.Unknown
	}
	return combined
}

// ---- stepper policy: the frame projects live queries at this level ----

// multiFrame is the per-container frame: the queries still live at this
// nesting level and the G4 bookkeeping for objects.
type multiFrame struct {
	live states
	// remaining counts live non-wildcard queries that have not yet
	// matched an attribute of this object; when it reaches zero (and no
	// wildcard is live) the G4 generalization applies.
	remaining   int
	anyWildcard bool
}

func (e *MultiEngine) enterObject(st states) (*multiFrame, jsonpath.ValueType, bool) {
	f := &multiFrame{live: make(states, len(st))}
	nLive := 0
	for i, q := range st {
		f.live[i] = deadState
		if q == deadState || !e.auts[i].IsObjectState(int(q)) {
			continue
		}
		f.live[i] = q
		nLive++
		if !e.auts[i].IsNamedChild(int(q)) {
			// Wildcard (or any non-unique-key) steps can match more than
			// one attribute, so G4 stays off for this object.
			f.anyWildcard = true
		}
	}
	if nLive == 0 {
		return nil, jsonpath.Unknown, false
	}
	f.remaining = nLive
	return f, e.combinedExpected(f.live), true
}

func (e *MultiEngine) enterArray(st states) (*multiFrame, jsonpath.ValueType, int, int, bool, bool) {
	f := &multiFrame{live: make(states, len(st))}
	nLive := 0
	lo, hi := jsonpath.MaxIndex, 0
	constrained := true
	for i, q := range st {
		f.live[i] = deadState
		if q == deadState || !e.auts[i].IsArrayState(int(q)) {
			continue
		}
		f.live[i] = q
		nLive++
		l, h, c := e.auts[i].Range(int(q))
		if !c {
			constrained = false
		} else {
			if l < lo {
				lo = l
			}
			if h > hi {
				hi = h
			}
		}
	}
	if nLive == 0 {
		return nil, jsonpath.Unknown, 0, 0, false, false
	}
	if !constrained {
		lo, hi = 0, jsonpath.MaxIndex
	}
	return f, e.combinedExpected(f.live), lo, hi, true, true
}

func (e *MultiEngine) matchKey(f *multiFrame, name []byte) (child states, accepts []int, act action, done bool) {
	anyProgress := false
	for i, q := range f.live {
		if q == deadState {
			continue
		}
		q2, status := e.auts[i].MatchKey(int(q), name)
		switch status {
		case automaton.Accept:
			accepts = append(accepts, i)
		case automaton.Matched:
			if child == nil {
				child = newDeadStates(len(f.live))
			}
			child[i] = int32(q2)
			anyProgress = true
		default:
			continue
		}
		if e.auts[i].IsNamedChild(int(q)) {
			// Named attributes are unique; wildcard states stay live.
			f.live[i] = deadState
			f.remaining--
		}
	}
	// G4 generalization: every query matched its unique attribute at
	// this level.
	done = f.remaining == 0 && !f.anyWildcard
	return child, accepts, chooseAction(anyProgress, accepts), done
}

func (e *MultiEngine) matchIndex(f *multiFrame, idx int) (child states, accepts []int, act action) {
	anyProgress := false
	for i, q := range f.live {
		if q == deadState {
			continue
		}
		q2, status := e.auts[i].MatchIndex(int(q), idx)
		switch status {
		case automaton.Accept:
			accepts = append(accepts, i)
		case automaton.Matched:
			if child == nil {
				child = newDeadStates(len(f.live))
			}
			child[i] = int32(q2)
			anyProgress = true
		}
	}
	return child, accepts, chooseAction(anyProgress, accepts)
}

func (e *MultiEngine) emitMatch(accepts []int, start, end int) {
	for _, i := range accepts {
		e.emitQuery(i, start, end)
	}
}

// resolveProbe is unreachable: CompileSet routes filter queries to
// per-query engines, so no automaton here ever reports Candidate (the
// match loops above treat one as no progress).
func (e *MultiEngine) resolveProbe(states, jsonpath.ValueType, int, int, fastforward.Group) error {
	return fmt.Errorf("core: multi-query policy has no filter probes")
}

// stateID renders the number of live queries into trace events; a
// per-query state has no single-integer representation.
func (e *MultiEngine) stateID(f *multiFrame) int {
	n := 0
	for _, q := range f.live {
		if q != deadState {
			n++
		}
	}
	return n
}

func newDeadStates(n int) states {
	child := make(states, n)
	for i := range child {
		child[i] = deadState
	}
	return child
}

// chooseAction maps a member's match outcome onto the driver dispatch:
// descending wins when any query progressed (accepting queries then
// emit the consumed extent), acceptance alone outputs via G3, and no
// outcome at all skips.
func chooseAction(anyProgress bool, accepts []int) action {
	switch {
	case anyProgress && len(accepts) > 0:
		return actDescendOutput
	case anyProgress:
		return actDescend
	case len(accepts) > 0:
		return actOutput
	default:
		return actSkip
	}
}
