// Package automaton implements the query automaton of paper §3.1
// (Figure 5): a pushdown automaton whose states are the number of path
// steps matched so far. In the paper's recursive-descent streaming model
// the automaton's stack *is* the parser's call stack, so this package is
// deliberately stackless: the engine threads the integer state through its
// recursion, and the [Ary-S]/[Ary-E]/[Val] push/pop rules fall out of
// ordinary function call and return.
package automaton

import (
	"bytes"

	"jsonski/internal/jsonpath"
)

// Status is the matching status after a transition (paper Figure 4/5).
type Status uint8

// Matching statuses.
const (
	Unmatched Status = iota // no progress possible below this value
	Matched                 // progressed one step, more steps remain
	Accept                  // all steps matched; the value is an output
	// Candidate: the pending step is a filter selector. The value's span
	// must be consumed and the predicate probed before the engine knows
	// whether the successor state (Matched or Accept) applies.
	Candidate
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Matched:
		return "matched"
	case Accept:
		return "accept"
	case Candidate:
		return "candidate"
	default:
		return "unmatched"
	}
}

// Automaton is the compiled matching logic for one path query.
// It is immutable and safe for concurrent use.
type Automaton struct {
	steps []jsonpath.Step
	root  jsonpath.ValueType
}

// New compiles the automaton for a parsed path.
func New(p *jsonpath.Path) *Automaton {
	return &Automaton{steps: p.Steps, root: p.RootType()}
}

// StepCount returns the number of path steps (the accept state index).
func (a *Automaton) StepCount() int { return len(a.steps) }

// RootType returns the inferred type of the record root.
func (a *Automaton) RootType() jsonpath.ValueType { return a.root }

// Step returns the i-th path step. The caller must keep i < StepCount.
func (a *Automaton) Step(i int) jsonpath.Step { return a.steps[i] }

// statusFor converts a successor state into a Status.
func (a *Automaton) statusFor(next int) Status {
	if next == len(a.steps) {
		return Accept
	}
	return Matched
}

// IsDescendant reports whether state q is a descendant step (`..sel`):
// its level is unknown (§5.1), so the state stays live in every value
// below it, beside whatever successor its inner selector reaches.
func (a *Automaton) IsDescendant(q int) bool {
	return q < len(a.steps) && a.steps[q].Kind == jsonpath.Descendant
}

// IsObjectState reports whether state q can consume attribute names
// (the pending step selects object members). When q is the accept state
// it returns false.
func (a *Automaton) IsObjectState(q int) bool {
	if q >= len(a.steps) {
		return false
	}
	st := &a.steps[q]
	return st.Kind == jsonpath.Descendant || st.SelectsMembers()
}

// IsArrayState reports whether state q can consume array element indexes.
func (a *Automaton) IsArrayState(q int) bool {
	if q >= len(a.steps) {
		return false
	}
	st := &a.steps[q]
	return st.Kind == jsonpath.Descendant || st.SelectsElements()
}

// IsNamedChild reports whether state q is a named child step: it
// selects at most one attribute per object, so after a match the rest
// of the object is irrelevant (G4).
func (a *Automaton) IsNamedChild(q int) bool {
	return q < len(a.steps) && a.steps[q].Kind == jsonpath.Child
}

// selector returns the selector state q applies to a member: the step
// itself, or a descendant's inner selector.
func (a *Automaton) selector(q int) *jsonpath.Step {
	st := &a.steps[q]
	if st.Kind == jsonpath.Descendant {
		return &st.Sel[0]
	}
	return st
}

// MatchKey applies the [Key] rule: in state q, consuming attribute name
// `name` (raw bytes between the quotes, escapes unresolved). It returns
// the successor state and the status. On Unmatched the successor state is
// meaningless. A filter state returns Candidate: the member is selected
// only if its value satisfies the predicate, which the engine resolves
// after consuming the span. A descendant state matches its inner
// selector; the caller keeps the state itself live (IsDescendant).
func (a *Automaton) MatchKey(q int, name []byte) (int, Status) {
	if q >= len(a.steps) {
		return q, Unmatched
	}
	st := a.selector(q)
	switch st.Kind {
	case jsonpath.Wildcard:
		return q + 1, a.statusFor(q + 1)
	case jsonpath.Child:
		if KeyEqual(name, st.Name) {
			return q + 1, a.statusFor(q + 1)
		}
	case jsonpath.Filter:
		return q + 1, Candidate
	}
	return q, Unmatched
}

// MatchIndex applies the array rules: in state q, consuming the element
// at index idx. It returns the successor state and status (Candidate for
// filter states, and a descendant's inner selector, as in MatchKey).
func (a *Automaton) MatchIndex(q int, idx int) (int, Status) {
	if q >= len(a.steps) {
		return q, Unmatched
	}
	st := a.selector(q)
	switch st.Kind {
	case jsonpath.Wildcard:
		return q + 1, a.statusFor(q + 1)
	case jsonpath.Index, jsonpath.Slice:
		if IndexMatches(st, idx) {
			return q + 1, a.statusFor(q + 1)
		}
	case jsonpath.Filter:
		return q + 1, Candidate
	}
	return q, Unmatched
}

// IndexMatches reports whether a streamable index/slice/wildcard step
// selects element idx, honoring the slice stride.
func IndexMatches(st *jsonpath.Step, idx int) bool {
	if idx < st.Lo || idx >= st.Hi {
		return false
	}
	if st.Kind == jsonpath.Slice && st.Stride > 1 && (idx-st.Lo)%st.Stride != 0 {
		return false
	}
	return true
}

// Range returns the element index range selected in state q and whether
// the state is range-constrained at all (false for [*], filters,
// descendants, and non-array states). Stride gaps inside the range are
// not represented here; MatchIndex rejects them element-wise.
func (a *Automaton) Range(q int) (lo, hi int, constrained bool) {
	if q >= len(a.steps) {
		return 0, 0, false
	}
	st := &a.steps[q]
	switch st.Kind {
	case jsonpath.Index, jsonpath.Slice:
		return st.Lo, st.Hi, true
	}
	return 0, jsonpath.MaxIndex, false
}

// TypeExpected returns the inferred type of the values that can make
// progress from state q — the fast-forward type filter of §3.2 (G1).
// At the accept state or the last step it returns Unknown.
func (a *Automaton) TypeExpected(q int) jsonpath.ValueType {
	if q >= len(a.steps) {
		return jsonpath.Unknown
	}
	return a.steps[q].Expect
}

// KeyEqual compares a raw JSON attribute name (as read from the input,
// escapes intact) with a query step name. The fast path is a plain byte
// comparison; names containing backslashes fall back to unescaping.
func KeyEqual(raw []byte, name string) bool {
	if bytes.IndexByte(raw, '\\') < 0 {
		return string(raw) == name // no allocation: compiler optimizes
	}
	return string(unescape(raw)) == name
}

// unescape resolves the JSON string escapes that can appear inside an
// attribute name. Unicode escapes decode to UTF-8; invalid escapes are
// kept verbatim rather than rejected, since the surrounding tokenizer has
// already validated the string's quoting.
func unescape(raw []byte) []byte {
	out := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c != '\\' || i+1 >= len(raw) {
			out = append(out, c)
			continue
		}
		i++
		switch raw[i] {
		case '"':
			out = append(out, '"')
		case '\\':
			out = append(out, '\\')
		case '/':
			out = append(out, '/')
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			if i+4 < len(raw) {
				r := rune(0)
				ok := true
				for k := 1; k <= 4; k++ {
					r <<= 4
					switch d := raw[i+k]; {
					case d >= '0' && d <= '9':
						r |= rune(d - '0')
					case d >= 'a' && d <= 'f':
						r |= rune(d-'a') + 10
					case d >= 'A' && d <= 'F':
						r |= rune(d-'A') + 10
					default:
						ok = false
					}
				}
				if ok {
					out = appendRune(out, r)
					i += 4
					continue
				}
			}
			out = append(out, '\\', 'u')
		default:
			out = append(out, '\\', raw[i])
		}
	}
	return out
}

// appendRune appends the UTF-8 encoding of r.
func appendRune(out []byte, r rune) []byte {
	switch {
	case r < 0x80:
		return append(out, byte(r))
	case r < 0x800:
		return append(out, 0xC0|byte(r>>6), 0x80|byte(r&0x3F))
	default:
		return append(out, 0xE0|byte(r>>12), 0x80|byte(r>>6&0x3F), 0x80|byte(r&0x3F))
	}
}
