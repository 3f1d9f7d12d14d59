package core

import (
	"fmt"

	"jsonski/internal/fastforward"
	"jsonski/internal/jsonpath"
)

// This file is the one recursive-descent driver shared by every engine
// (paper §3, Algorithm 2). The driver owns object/array descent, the
// skip/output/descend dispatch per member, uniform fast-forward group
// charging, the recursion bound, and trace-state upkeep; an engine
// supplies only a stepper policy describing how its match state reacts
// to keys and indices. The single-query engine's state set and the
// multi-query state vector are thin policies over these three functions.

// action selects what the driver does with one attribute or element
// value after the policy has matched its key/index.
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
	// afterwards (a state set below a descendant, or a multi-query
	// vector, can accept and continue at once; a single state never
	// does).
	actDescendOutput
	// actProbe: the pending step is a filter selector — the value is a
	// candidate. The driver fast-forwards over it exactly like actSkip
	// (same group charge: the movement is the same), then hands the
	// consumed span to the policy's resolveProbe, which decides the
	// predicate and emits or re-descends as needed.
	actProbe
)

// maxDepth bounds driver recursion. A linear path's depth is already
// bounded by its length, but a descendant state and the multi policy
// recurse per nesting level of the input, so the driver enforces one
// bound for all.
const maxDepth = 10000

// stepper is the per-engine policy the driver consults at each step of
// the descent. S is the state handed down into a value (a state-set
// bitmask, a multi-query state vector); F is the frame the
// policy keeps while scanning one container's members; A carries the
// accepting queries of one member from matchKey/matchIndex to emitMatch.
type stepper[S, F, A any] interface {
	// enterObject projects descent state onto an object about to be
	// scanned: the member frame, the value type expected of candidate
	// attributes (Unknown disables G1 type filtering), and whether any
	// state is live inside. Dead containers are G2-skipped unopened.
	enterObject(st S) (frame F, expected jsonpath.ValueType, live bool)
	// enterArray is enterObject for arrays, adding the index range
	// [lo, hi) outside which elements are dead; constrained=false means
	// no range applies (G5 pre/post skips disabled).
	enterArray(st S) (frame F, expected jsonpath.ValueType, lo, hi int, constrained, live bool)
	// matchKey advances the frame over one attribute name, returning the
	// state to descend with, the accepting queries, the dispatch action,
	// and done=true when no later attribute of this object can match
	// (G4: the driver jumps to the object end after this member).
	matchKey(frame F, name []byte) (child S, acc A, act action, done bool)
	// matchIndex is matchKey for array elements.
	matchIndex(frame F, idx int) (child S, acc A, act action)
	// emitMatch reports one match span for the queries recorded in acc.
	emitMatch(acc A, start, end int)
	// resolveProbe decides an actProbe candidate after the driver has
	// consumed its span [start, end): child is the state matchKey/
	// matchIndex returned, vt the candidate's type, g the group the
	// consuming movement was charged to. Policies without filter support
	// return an error (the planner never routes filter steps to them).
	resolveProbe(child S, vt jsonpath.ValueType, start, end int, g fastforward.Group) error
	// stateID renders the frame for explain-trace events.
	stateID(frame F) int
}

// driveValue consumes the value under the cursor: containers with live
// state descend in detail, dead containers are skipped wholesale (G2),
// and primitives — which no pending step can match — are skipped (G2).
// The caller has already established the value's type; vt must be
// Object, Array, or a primitive type with the cursor on its first byte.
func driveValue[S, F, A any](c *cursor, p stepper[S, F, A], vt jsonpath.ValueType, st S, inArray bool) error {
	switch vt {
	case jsonpath.Object:
		frame, expected, live := p.enterObject(st)
		if !live {
			return c.ff.GoOverObj(fastforward.G2)
		}
		return driveObject(c, p, frame, expected)
	case jsonpath.Array:
		frame, expected, lo, hi, constrained, live := p.enterArray(st)
		if !live {
			return c.ff.GoOverAry(fastforward.G2)
		}
		return driveArray(c, p, frame, expected, lo, hi, constrained)
	default:
		return c.skipValue(vt, fastforward.G2, inArray)
	}
}

// driveMember dispatches one attribute/element value on the action the
// policy chose for it. skipGroup is the group charged for dead values:
// G2 for attributes, G5 (out-of-range semantics) for array elements.
func driveMember[S, F, A any](c *cursor, p stepper[S, F, A], vt jsonpath.ValueType, child S, acc A, act action, inArray bool, skipGroup fastforward.Group) error {
	switch act {
	case actSkip:
		return c.skipValue(vt, skipGroup, inArray)
	case actProbe:
		start := c.s.Pos()
		if err := c.skipValue(vt, skipGroup, inArray); err != nil {
			return err
		}
		return p.resolveProbe(child, vt, start, trimWSEnd(c.s.Data(), start, c.s.Pos()), skipGroup)
	case actOutput:
		sp, err := c.outputValue(vt, inArray)
		if err != nil {
			return err
		}
		p.emitMatch(acc, sp.Start, sp.End)
		return nil
	default: // actDescend, actDescendOutput
		start := c.s.Pos()
		if err := driveValue(c, p, vt, child, inArray); err != nil {
			return err
		}
		if act == actDescendOutput {
			p.emitMatch(acc, start, trimWSEnd(c.s.Data(), start, c.s.Pos()))
		}
		return nil
	}
}

// driveObject scans the object whose '{' is under the cursor (Algorithm
// 2, [Key]/[Val] rules). On return the cursor is just past the matching
// '}'.
func driveObject[S, F, A any](c *cursor, p stepper[S, F, A], frame F, expected jsonpath.ValueType) error {
	s := c.s
	if c.depth++; c.depth > maxDepth {
		return fmt.Errorf("core: nesting deeper than %d at %d", maxDepth, s.Pos())
	}
	defer func() { c.depth-- }()
	s.Advance(1) // consume '{'
	if c.trace != nil {
		c.trace.SetState(p.stateID(frame))
	}
	for {
		r, err := c.ff.NextAttr(expected)
		if err != nil {
			return err
		}
		if r.End {
			return nil
		}
		child, acc, act, done := p.matchKey(frame, r.Name)
		if err := driveMember(c, p, r.VType, child, acc, act, false, fastforward.G2); err != nil {
			return err
		}
		if act >= actDescend && c.trace != nil {
			c.trace.SetState(p.stateID(frame)) // back in this frame
		}
		if done {
			// G4: attribute names are unique, so no further attribute of
			// this object can match any live query.
			return c.ff.GoToObjEnd()
		}
	}
}

// driveArray scans the array whose '[' is under the cursor, maintaining
// the element index across fast-forwarded runs ([Ary-S]/[Ary-E] rules).
func driveArray[S, F, A any](c *cursor, p stepper[S, F, A], frame F, expected jsonpath.ValueType, lo, hi int, constrained bool) error {
	s := c.s
	if c.depth++; c.depth > maxDepth {
		return fmt.Errorf("core: nesting deeper than %d at %d", maxDepth, s.Pos())
	}
	defer func() { c.depth-- }()
	s.Advance(1) // consume '['
	if c.trace != nil {
		c.trace.SetState(p.stateID(frame))
	}
	idx := 0
	if constrained && lo > 0 {
		// G5: fast-forward over the elements before the range.
		_, ended, err := c.ff.GoOverElems(lo)
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
			return c.ff.GoToAryEnd()
		}
		r, err := c.ff.NextElem(expected, idx)
		if err != nil {
			return err
		}
		if r.End {
			return nil
		}
		idx = r.Index
		if constrained && idx >= hi {
			return c.ff.GoToAryEnd()
		}
		child, acc, act := p.matchIndex(frame, idx)
		if err := driveMember(c, p, r.VType, child, acc, act, true, fastforward.G5); err != nil {
			return err
		}
		if act >= actDescend && c.trace != nil {
			c.trace.SetState(p.stateID(frame))
		}
		if constrained && idx+1 >= hi {
			// G5: the range is exhausted — jump straight from here rather
			// than stepping onto the next element first.
			return c.ff.GoToAryEnd()
		}
	}
}
