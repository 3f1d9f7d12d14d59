// Package automaton implements the query automaton of paper §3.1
// (Figure 5): a pushdown automaton whose states are the number of path
// steps matched so far. In the paper's recursive-descent streaming model
// the automaton's stack *is* the parser's call stack, so this package is
// deliberately stackless: the engine threads its states through its
// recursion, and the [Ary-S]/[Ary-E]/[Val] push/pop rules fall out of
// ordinary function call and return. Several paths compile into one
// automaton whose states are numbered in one space, so the engine can
// carry the live states of all of them in one set.
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

// Automaton is the compiled matching logic for one or more path
// queries. Each path contributes one state per step and then its accept
// state, and the paths' states are numbered in one space, in path
// order: path 0's steps, its accept state, path 1's steps, and so on. A
// set of states can so hold the live states of several paths at once:
// it is the product of the paths' automata, without prefix merging.
// An Automaton is immutable and safe for concurrent use.
type Automaton struct {
	rows   []row
	starts []int                // first state of each path
	roots  []jsonpath.ValueType // inferred record type of each path
}

// row is one state: a path step, or the accept state of its path.
type row struct {
	step   jsonpath.Step // zero for an accept state
	path   int
	accept bool
}

// MaxStates bounds the states of an automaton the streaming engine
// runs: it holds a set of states in one uint64, and the longest
// streamable path (jsonpath.MaxStreamSteps) with its accept state fills
// 63 bits.
const MaxStates = jsonpath.MaxStreamSteps + 1

// New compiles the automaton for one or more parsed paths.
func New(paths ...*jsonpath.Path) *Automaton {
	a := &Automaton{}
	for i, p := range paths {
		a.starts = append(a.starts, len(a.rows))
		a.roots = append(a.roots, p.RootType())
		for _, st := range p.Steps {
			a.rows = append(a.rows, row{step: st, path: i})
		}
		a.rows = append(a.rows, row{path: i, accept: true})
	}
	return a
}

// States returns the number of states, accept states included.
func (a *Automaton) States() int { return len(a.rows) }

// Paths returns the number of paths.
func (a *Automaton) Paths() int { return len(a.starts) }

// Start returns the start state of path i. A bare `$` path starts in
// its accept state.
func (a *Automaton) Start(i int) int { return a.starts[i] }

// RootType returns the inferred type of the record root for path i.
func (a *Automaton) RootType(i int) jsonpath.ValueType { return a.roots[i] }

// PathOf returns the index of the path state q belongs to.
func (a *Automaton) PathOf(q int) int { return a.rows[q].path }

// IsAccept reports whether q is the accept state of its path.
func (a *Automaton) IsAccept(q int) bool { return a.rows[q].accept }

// Step returns the path step of state q, which must not be an accept
// state.
func (a *Automaton) Step(q int) jsonpath.Step { return a.rows[q].step }

// statusFor converts a successor state into a Status.
func (a *Automaton) statusFor(next int) Status {
	if a.rows[next].accept {
		return Accept
	}
	return Matched
}

// IsDescendant reports whether state q is a descendant step (`..sel`):
// its level is unknown (§5.1), so the state stays live in every value
// below it, beside whatever successor its inner selector reaches.
func (a *Automaton) IsDescendant(q int) bool {
	r := &a.rows[q]
	return !r.accept && r.step.Kind == jsonpath.Descendant
}

// IsObjectState reports whether state q can consume attribute names
// (the pending step selects object members). An accept state cannot.
func (a *Automaton) IsObjectState(q int) bool {
	r := &a.rows[q]
	return !r.accept && (r.step.Kind == jsonpath.Descendant || r.step.SelectsMembers())
}

// IsArrayState reports whether state q can consume array element indexes.
func (a *Automaton) IsArrayState(q int) bool {
	r := &a.rows[q]
	return !r.accept && (r.step.Kind == jsonpath.Descendant || r.step.SelectsElements())
}

// IsNamedChild reports whether state q is a named child step: it
// selects at most one attribute per object, so after a match the rest
// of the object is irrelevant (G4).
func (a *Automaton) IsNamedChild(q int) bool {
	r := &a.rows[q]
	return !r.accept && r.step.Kind == jsonpath.Child
}

// selector returns the selector state q applies to a member: the step
// itself, or a descendant's inner selector.
func (a *Automaton) selector(q int) *jsonpath.Step {
	st := &a.rows[q].step
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
	if a.rows[q].accept {
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
	if a.rows[q].accept {
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
	r := &a.rows[q]
	if r.accept {
		return 0, 0, false
	}
	switch st := &r.step; st.Kind {
	case jsonpath.Index, jsonpath.Slice:
		return st.Lo, st.Hi, true
	}
	return 0, jsonpath.MaxIndex, false
}

// TypeExpected returns the inferred type of the values that can make
// progress from state q — the fast-forward type filter of §3.2 (G1).
// At an accept state or a path's last step it returns Unknown.
func (a *Automaton) TypeExpected(q int) jsonpath.ValueType {
	return a.rows[q].step.Expect
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
