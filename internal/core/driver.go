package core

import (
	"fmt"

	"jsonski/internal/automaton"
	"jsonski/internal/bits"
	"jsonski/internal/fastforward"
	"jsonski/internal/jsonpath"
)

// This file is the engine's recursive descent (paper §3, Algorithm 2):
// object/array descent, the skip/output/descend dispatch per member,
// uniform fast-forward group charging, the recursion bound, and
// trace-state upkeep. The fast-forward rules read the live state set
// through the engine's per-state masks:
//
//   - G1: the value type every live state expects of a member, or
//     Unknown when they differ;
//   - G2: a member no live state matches is skipped;
//   - G4: a named-child state leaves the object's live set once it
//     matches (names are unique, and the DOM reference keeps the first
//     of a duplicate name); when only named-child states entered the
//     object, the rest of it is skipped once all of them have matched;
//   - G5: the union of the live states' index ranges, none if any
//     state's range is open.

// action selects what the driver does with one attribute or element
// value after matching its key/index.
type action int8

const (
	// actSkip: no live state matched; fast-forward over the value
	// (G2 for attributes, G5 for array elements).
	actSkip action = iota
	// actOutput: the value is accepted and nothing descends into it;
	// fast-forward over it and emit its span (G3).
	actOutput
	// actDescend: live state continues into the value; recurse.
	actDescend
	// actDescendOutput: actDescend, plus the consumed extent is emitted
	// afterwards (one path below a descendant, or one path of several,
	// accepts the value while another state continues into it).
	actDescendOutput
	// actProbe: the pending step is a filter selector — the value is a
	// candidate. The driver fast-forwards over it exactly like actSkip
	// (same group charge: the movement is the same), then hands the
	// consumed span to resolveProbe, which decides the predicate and
	// emits or re-descends as needed.
	actProbe
)

// maxDepth bounds driver recursion. A linear path's depth is already
// bounded by its length, but a descendant state recurses per nesting
// level of the input, so the driver enforces one bound for all.
const maxDepth = 10000

// driveValue consumes the value under the cursor: containers with live
// state descend in detail, dead containers are skipped wholesale (G2),
// and primitives — which no pending step can match — are skipped (G2).
// The caller has already established the value's type; vt must be
// Object, Array, or a primitive type with the cursor on its first byte.
func (e *Engine) driveValue(vt jsonpath.ValueType, set stateSet, inArray bool) error {
	switch vt {
	case jsonpath.Object:
		if set&e.objStates == 0 {
			return e.ff.GoOverObj(fastforward.G2)
		}
		return e.driveObject(set)
	case jsonpath.Array:
		if set&e.aryStates == 0 {
			return e.ff.GoOverAry(fastforward.G2)
		}
		return e.driveArray(set)
	default:
		return e.skipValue(vt, fastforward.G2, inArray)
	}
}

// driveMember dispatches one attribute/element value on the action
// matching chose for it: child holds the states that descend, acc the
// accept states that output the value. skipGroup is the group charged
// for dead values: G2 for attributes, G5 (out-of-range semantics) for
// array elements.
func (e *Engine) driveMember(vt jsonpath.ValueType, child, acc stateSet, act action, inArray bool, skipGroup fastforward.Group) error {
	switch act {
	case actSkip:
		return e.skipValue(vt, skipGroup, inArray)
	case actProbe:
		start := e.s.Pos()
		if err := e.skipValue(vt, skipGroup, inArray); err != nil {
			return err
		}
		return e.resolveProbe(child, vt, start, trimWSEnd(e.s.Data(), start, e.s.Pos()), skipGroup)
	case actOutput:
		sp, err := e.outputValue(vt, inArray)
		if err != nil {
			return err
		}
		e.emitMatch(acc, sp.Start, sp.End)
		return nil
	default: // actDescend, actDescendOutput
		start := e.s.Pos()
		if err := e.driveValue(vt, child, inArray); err != nil {
			return err
		}
		if act == actDescendOutput {
			e.emitMatch(acc, start, trimWSEnd(e.s.Data(), start, e.s.Pos()))
		}
		return nil
	}
}

// driveObject scans the object whose '{' is under the cursor (Algorithm
// 2, [Key]/[Val] rules) with the states in set. On return the cursor is
// just past the matching '}'.
func (e *Engine) driveObject(set stateSet) error {
	s := e.s
	if e.depth++; e.depth > maxDepth {
		return fmt.Errorf("core: nesting deeper than %d at %d", maxDepth, s.Pos())
	}
	defer func() { e.depth-- }()
	s.Advance(1) // consume '{'
	if e.trace != nil {
		e.trace.SetState(stateID(set))
	}
	live := set & e.objStates
	expected := e.expected(live)
	jump := live&^e.named == 0 && e.groupOn(4)
	for {
		r, err := e.ff.NextAttr(expected)
		if err != nil {
			return err
		}
		if r.End {
			return nil
		}
		child, acc, act := e.matchKey(&live, r.Name)
		if err := e.driveMember(r.VType, child, acc, act, false, fastforward.G2); err != nil {
			return err
		}
		if act >= actDescend && e.trace != nil {
			e.trace.SetState(stateID(set)) // back in this frame
		}
		if jump && live == 0 {
			// G4: attribute names are unique, so no further attribute of
			// this object can match.
			return e.ff.GoToObjEnd()
		}
	}
}

// driveArray scans the array whose '[' is under the cursor, maintaining
// the element index across fast-forwarded runs ([Ary-S]/[Ary-E] rules).
func (e *Engine) driveArray(set stateSet) error {
	s := e.s
	if e.depth++; e.depth > maxDepth {
		return fmt.Errorf("core: nesting deeper than %d at %d", maxDepth, s.Pos())
	}
	defer func() { e.depth-- }()
	s.Advance(1) // consume '['
	if e.trace != nil {
		e.trace.SetState(stateID(set))
	}
	live := set & e.aryStates
	expected := e.expected(live)
	lo, hi, constrained := e.arrayRange(live)
	idx := 0
	if constrained && lo > 0 {
		// G5: fast-forward over the elements before the range.
		_, ended, err := e.ff.GoOverElems(lo)
		if err != nil {
			return err
		}
		if ended {
			return nil // array ended before the range began
		}
		idx = lo
	}
	for {
		if constrained && idx >= hi {
			// G5: everything after the range is irrelevant.
			return e.ff.GoToAryEnd()
		}
		r, err := e.ff.NextElem(expected, idx)
		if err != nil {
			return err
		}
		if r.End {
			return nil
		}
		idx = r.Index
		if constrained && idx >= hi {
			return e.ff.GoToAryEnd()
		}
		child, acc, act := e.matchIndex(live, idx)
		if err := e.driveMember(r.VType, child, acc, act, true, fastforward.G5); err != nil {
			return err
		}
		if act >= actDescend && e.trace != nil {
			e.trace.SetState(stateID(set))
		}
		if constrained && idx+1 >= hi {
			// G5: the range is exhausted — jump straight from here rather
			// than stepping onto the next element first.
			return e.ff.GoToAryEnd()
		}
	}
}

// expected is the G1 type filter for a container scanned with live: the
// type every live state expects of a member, or Unknown when they
// differ.
func (e *Engine) expected(live stateSet) jsonpath.ValueType {
	if !e.groupOn(1) {
		return jsonpath.Unknown // G1 ablation: no type filtering
	}
	t := e.aut.TypeExpected(bits.TrailingZeros(live))
	for s := live & (live - 1); s != 0; s &= s - 1 {
		if e.aut.TypeExpected(bits.TrailingZeros(s)) != t {
			return jsonpath.Unknown
		}
	}
	return t
}

// arrayRange is the G5 element range of an array scanned with live: the
// union of the live states' ranges, and none if any range is open.
func (e *Engine) arrayRange(live stateSet) (lo, hi int, constrained bool) {
	if !e.groupOn(5) {
		return 0, 0, false
	}
	lo, hi = jsonpath.MaxIndex, 0
	for s := live; s != 0; s &= s - 1 {
		l, h, ok := e.aut.Range(bits.TrailingZeros(s))
		if !ok {
			return 0, 0, false
		}
		lo, hi = min(lo, l), max(hi, h)
	}
	return lo, hi, true
}

// matchKey advances the object's live states over one attribute name.
// A named-child state that matches leaves *live: no later attribute of
// this object can carry its name.
func (e *Engine) matchKey(live *stateSet, name []byte) (child, acc stateSet, act action) {
	var next, matched stateSet
	for s := *live; s != 0; s &= s - 1 {
		q := bits.TrailingZeros(s)
		switch q2, status := e.aut.MatchKey(q, name); status {
		case automaton.Candidate:
			// Filter state: consume the span, then decide (filter.go).
			// SplitPoint keeps filters out of sets with a descendant.
			return 1 << q2, 0, actProbe
		case automaton.Matched, automaton.Accept:
			next |= 1 << q2
			matched |= 1 << q
		}
	}
	*live &^= matched & e.named
	return e.dispatch(next | *live&e.descendant)
}

// matchIndex advances the array's live states over one element index.
func (e *Engine) matchIndex(live stateSet, idx int) (child, acc stateSet, act action) {
	var next stateSet
	for s := live; s != 0; s &= s - 1 {
		q := bits.TrailingZeros(s)
		switch q2, status := e.aut.MatchIndex(q, idx); status {
		case automaton.Candidate:
			return 1 << q2, 0, actProbe
		case automaton.Matched, automaton.Accept:
			next |= 1 << q2
		}
	}
	return e.dispatch(next | live&e.descendant)
}

// dispatch turns a successor set into the driver action: accept states
// output, the other states descend, and both together do both. An
// empty set is a skip (G2 for an attribute, G5 for an element).
func (e *Engine) dispatch(next stateSet) (child, acc stateSet, act action) {
	child, acc = next&^e.accept, next&e.accept
	switch {
	case next == 0:
		act = actSkip
	case acc == 0:
		act = actDescend
	case child == 0:
		act = actOutput
	default:
		act = actDescendOutput
	}
	return child, acc, act
}

// trimWSEnd backs end up over trailing JSON whitespace in data[start:end].
func trimWSEnd(data []byte, start, end int) int {
	for end > start && (data[end-1] == ' ' || data[end-1] == '\t' || data[end-1] == '\n' || data[end-1] == '\r') {
		end--
	}
	return end
}
