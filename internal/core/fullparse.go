package core

import (
	"fmt"

	"jsonski/internal/fastforward"
	"jsonski/internal/jsonpath"
)

// This file implements plain recursive-descent streaming (paper
// Algorithm 1): every token is recognized and fed to the query automaton,
// with no fast-forwarding. It exists for the ablation benchmarks
// (DisableFastForward) and doubles as an in-package correctness oracle —
// both paths must produce identical matches on identical input.

// fullObject parses the object under the cursor token by token, applying
// the [Key]/[Val] rules at each attribute, and the driver's rule that a
// named-child state matches at most one attribute. An empty set parses
// a subtree in detail while matching nothing.
func (e *Engine) fullObject(set stateSet) error {
	s := e.s
	s.Advance(1) // consume '{'
	live := set
	for {
		b, ok := s.SkipWS()
		if !ok {
			return fmt.Errorf("core: EOF inside object")
		}
		switch b {
		case '}':
			s.Advance(1)
			return nil
		case ',':
			s.Advance(1)
			continue
		case '"':
		default:
			return fmt.Errorf("core: expected attribute name at %d, got %q", s.Pos(), b)
		}
		name, err := s.ReadString()
		if err != nil {
			return err
		}
		if err := s.Expect(':'); err != nil {
			return err
		}
		vb, ok := s.SkipWS()
		if !ok {
			return fmt.Errorf("core: attribute without value at %d", s.Pos())
		}
		child, acc, act := e.matchKey(&live, name)
		if err := e.fullMember(vb, child, acc, act, fastforward.G2); err != nil {
			return err
		}
	}
}

// fullArray parses the array under the cursor token by token.
func (e *Engine) fullArray(set stateSet) error {
	s := e.s
	s.Advance(1) // consume '['
	idx := 0
	for {
		b, ok := s.SkipWS()
		if !ok {
			return fmt.Errorf("core: EOF inside array")
		}
		switch b {
		case ']':
			s.Advance(1)
			return nil
		case ',':
			s.Advance(1)
			idx++
			continue
		}
		child, acc, act := e.matchIndex(set, idx)
		if err := e.fullMember(b, child, acc, act, fastforward.G5); err != nil {
			return err
		}
	}
}

// fullMember parses one attribute or element value in detail and acts
// on the engine's decision for it. A filter candidate is parsed like a
// dead value (no fast-forwarding in this ablation) and then decided like
// the normal path; g is the group its probe event reports.
func (e *Engine) fullMember(b byte, child, acc stateSet, act action, g fastforward.Group) error {
	start := e.s.Pos()
	if act == actProbe {
		if err := e.fullValue(b, 0); err != nil {
			return err
		}
		end := trimWSEnd(e.s.Data(), start, e.s.Pos())
		return e.resolveProbe(child, jsonpath.TypeOfByte(b), start, end, g)
	}
	if err := e.fullValue(b, child); err != nil {
		return err
	}
	if acc != 0 {
		e.emitMatch(acc, start, e.s.Pos())
	}
	return nil
}

// fullValue parses one value of any type in detail, matching against set.
func (e *Engine) fullValue(b byte, set stateSet) error {
	switch b {
	case '{':
		return e.fullObject(set)
	case '[':
		return e.fullArray(set)
	case '"':
		return e.s.SkipString()
	default:
		e.s.SkipPrimitive()
		return nil
	}
}
