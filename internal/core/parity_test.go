package core

import (
	"fmt"
	"reflect"
	"testing"

	"jsonski/internal/automaton"
	"jsonski/internal/jsonpath"
)

// parityCases pairs a query with documents whose root type matches the
// query's expectation.
var parityCases = []struct{ query, data string }{
	{"$.a.b", `{"a": {"b": 1}, "c": {"b": 2}}`},
	{"$.a.b", `{"x": [1, 2, 3], "a": {"q": "s", "b": {"deep": [true]}}}`},
	{"$.a[*].b", `{"a": [{"b": 1}, {"c": 2}, {"b": [3, 4]}], "z": "tail"}`},
	{"$[1:3]", `[10, {"a": 1}, [2, 3], 40, 50]`},
	{"$.*", `{"a": 1, "b": {"c": 2}, "d": [3]}`},
	{"$.a[2]", `{"a": [0, 1, {"v": "hit"}, 3]}`},
	{"$.items[*].name", `{"items": [{"id": 1, "name": "x"}, {"id": 2, "name": "y"}], "n": 2}`},
	{"$.a.b", `{"a": "not an object", "b": 7}`},
	{"$[*].a", `[{"a": 1}, "skip", {"b": 2}, {"a": [3]}]`},
}

// TestDFAMultiStatsParity runs each parity query alone and as one path
// of an automaton holding every parity query, as a QuerySet group runs
// its shared members: the member must report the same spans, and the
// run the same InputBytes. Group charges are NOT compared: the other
// paths keep more of the record live.
func TestDFAMultiStatsParity(t *testing.T) {
	paths := make([]*jsonpath.Path, len(parityCases))
	for i, tc := range parityCases {
		paths[i] = jsonpath.MustParse(tc.query)
	}
	for i, tc := range parityCases {
		t.Run(tc.query, func(t *testing.T) {
			data := []byte(tc.data)
			alone := NewEngine(automaton.New(paths[i]))
			var aloneSpans []string
			aloneStats, err := alone.Run(data, func(member, s, e int) {
				if member != 0 {
					t.Errorf("one-path engine reported member %d", member)
				}
				aloneSpans = append(aloneSpans, tc.data[s:e])
			})
			if err != nil {
				t.Fatalf("alone: %v", err)
			}

			set := NewEngine(automaton.New(paths...))
			var setSpans []string
			setStats, err := set.Run(data, func(member, s, e int) {
				if member == i {
					setSpans = append(setSpans, tc.data[s:e])
				}
			})
			if err != nil {
				t.Fatalf("set: %v", err)
			}

			if !reflect.DeepEqual(aloneSpans, setSpans) {
				t.Errorf("spans diverge:\n alone %q\n set   %q", aloneSpans, setSpans)
			}
			if aloneStats.InputBytes != setStats.InputBytes {
				t.Errorf("input bytes diverge: alone %d set %d", aloneStats.InputBytes, setStats.InputBytes)
			}
		})
	}
}

// TestDFANFAMatchParity runs linear queries under the fast-forward
// rules the engine applies to a set holding a descendant (no G1, G4 or
// G5) and requires the same spans and InputBytes as under the
// single-state rules. Group charges are NOT compared: the same skipped
// bytes land in different groups by design.
func TestDFANFAMatchParity(t *testing.T) {
	for _, tc := range parityCases {
		t.Run(tc.query, func(t *testing.T) {
			p, err := jsonpath.Parse(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			data := []byte(tc.data)
			run := func(disabled uint8) ([]string, Stats) {
				e := NewEngine(automaton.New(p))
				e.DisabledGroups = disabled
				var spans []string
				st, err := e.Run(data, func(_, start, end int) { spans = append(spans, tc.data[start:end]) })
				if err != nil {
					t.Fatalf("disabled=%b: %v", disabled, err)
				}
				return spans, st
			}
			dfaSpans, dfaStats := run(0)
			nfaSpans, nfaStats := run(1<<0 | 1<<3 | 1<<4)
			if !reflect.DeepEqual(dfaSpans, nfaSpans) {
				t.Errorf("spans diverge:\n single-state %q\n set         %q", dfaSpans, nfaSpans)
			}
			if dfaStats.Matches != nfaStats.Matches ||
				dfaStats.InputBytes != nfaStats.InputBytes {
				t.Errorf("stats diverge: single-state %+v set %+v", dfaStats, nfaStats)
			}
		})
	}
}

// navParityCases are single-target child/index paths where pull-mode
// navigation and a compiled DFA run must be movement-for-movement
// identical: same emitted span, same per-group Table 1 charges.
var navParityCases = []struct {
	query string
	hops  []string // object names / decimal element indexes, in order
	data  string
}{
	{"$.a.b", []string{"a", "b"}, `{"a": {"b": 1}, "c": {"b": 2}}`},
	{"$.a.b", []string{"a", "b"}, `{"x": [1, 2, 3], "a": {"q": "s", "b": {"deep": [true]}}}`},
	{"$.a[2]", []string{"a", "2"}, `{"a": [0, 1, {"v": "hit"}, 3]}`},
	{"$.items[1].name", []string{"items", "1", "name"}, `{"items": [{"id": 1, "name": "x"}, {"id": 2, "name": "y"}], "n": 2}`},
	{"$.a.b", []string{"a", "b"}, `{"a": "not an object", "b": 7}`},
}

// navHint mirrors the automaton's per-step value-type expectation: an
// attribute whose next step is an index must hold an array, a child step
// an object, and the final step is unconstrained.
func navHint(hops []string, i int) jsonpath.ValueType {
	if i+1 >= len(hops) {
		return jsonpath.Unknown
	}
	if _, err := fmt.Sscanf(hops[i+1], "%d", new(int)); err == nil {
		return jsonpath.Array
	}
	return jsonpath.Object
}

// TestNavigatorDFAStatsParity pins the tentpole promise of the shared
// Navigator substrate: an on-demand hop sequence equivalent to a
// compiled child/index query produces the byte-identical span AND the
// identical per-group fast-forward charges, because both faces dispatch
// the same Table 1 movements.
func TestNavigatorDFAStatsParity(t *testing.T) {
	for _, tc := range navParityCases {
		t.Run(tc.query+"/"+tc.data[:15], func(t *testing.T) {
			p, err := jsonpath.Parse(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			data := []byte(tc.data)

			dfa := NewEngine(automaton.New(p))
			var dfaSpans [][2]int
			dfaStats, err := dfa.Run(data, func(_, s, e int) {
				dfaSpans = append(dfaSpans, [2]int{s, e})
			})
			if err != nil {
				t.Fatalf("dfa: %v", err)
			}

			var n Navigator
			n.Bind(data)
			v, err := n.Root()
			if err != nil {
				t.Fatal(err)
			}
			found := true
			for i, hop := range tc.hops {
				var idx int
				if _, err := fmt.Sscanf(hop, "%d", &idx); err == nil {
					v, found, err = n.Elem(v, idx)
				} else {
					v, found, err = n.Field(v, hop, navHint(tc.hops, i))
				}
				if err != nil {
					t.Fatalf("hop %q: %v", hop, err)
				}
				if !found {
					break
				}
			}
			var navSpans [][2]int
			if found {
				s, e, err := n.Raw(v)
				if err != nil {
					t.Fatal(err)
				}
				navSpans = append(navSpans, [2]int{s, e})
			}
			if err := n.Finish(); err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(dfaSpans, navSpans) {
				t.Errorf("spans diverge:\n dfa %v\n nav %v", dfaSpans, navSpans)
			}
			navStats := n.Stats()
			if dfaStats.InputBytes != navStats.InputBytes {
				t.Errorf("input bytes diverge: dfa %d nav %d", dfaStats.InputBytes, navStats.InputBytes)
			}
			if dfaStats.Skipped.SkippedBytes != navStats.Skipped.SkippedBytes {
				t.Errorf("group charges diverge:\n dfa %v\n nav %v",
					dfaStats.Skipped.SkippedBytes, navStats.Skipped.SkippedBytes)
			}
			if got := navStats.ScannedBytes() + navStats.Skipped.TotalSkipped(); got != navStats.InputBytes {
				t.Errorf("nav accounting: scanned+ff = %d, input %d", got, navStats.InputBytes)
			}
		})
	}
}
