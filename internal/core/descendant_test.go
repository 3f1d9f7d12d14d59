package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"jsonski/internal/automaton"
	"jsonski/internal/baseline/domparser"
	"jsonski/internal/jsonpath"
)

func runEngine(t *testing.T, query, data string) []string {
	t.Helper()
	p, err := jsonpath.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	if _, err := NewEngine(automaton.New(p)).Run([]byte(data), func(_, s, en int) {
		got = append(got, data[s:en])
	}); err != nil {
		t.Fatalf("%q: %v", query, err)
	}
	return got
}

func TestNFABasicDescendant(t *testing.T) {
	data := `{"a": {"name": "x", "b": {"name": "y"}}, "name": "z", "arr": [{"name": "w"}]}`
	got := runEngine(t, "$..name", data)
	// post-order within nesting: inner "y" is emitted while its parent
	// object is being consumed, before the top-level "z".
	want := []string{`"x"`, `"y"`, `"z"`, `"w"`}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestNFADescendantWithPrefix(t *testing.T) {
	data := `{"skip": {"price": 1}, "store": {"book": {"price": 2}, "price": 3}}`
	got := runEngine(t, "$.store..price", data)
	want := []string{`2`, `3`}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestNFADescendantNested(t *testing.T) {
	// a value matched by ..a can contain further matches
	data := `{"a": {"a": {"a": 1}}}`
	got := runEngine(t, "$..a", data)
	if len(got) != 3 {
		t.Fatalf("got %q, want 3 matches", got)
	}
}

func TestNFADescendantStar(t *testing.T) {
	data := `{"a": 1, "b": [2, {"c": 3}]}`
	got := runEngine(t, "$..*", data)
	// every value below the root: 1, [2,{"c":3}] and its contents
	if len(got) != 5 {
		t.Fatalf("got %d matches: %q", len(got), got)
	}
}

func TestNFADescendantThenIndex(t *testing.T) {
	data := `{"x": {"items": [10, 20]}, "items": [30]}`
	got := runEngine(t, "$..items[0]", data)
	want := []string{`10`, `30`}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
}

// domOracle evaluates a path (with descendants) over a parsed DOM using
// the set-of-states transition rules, serving as an independent oracle.
func domOracle(t *testing.T, steps []jsonpath.Step, data []byte) []string {
	t.Helper()
	root, err := domparser.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	accept := uint64(1) << uint(len(steps))
	var out []string
	var walk func(n *domparser.Node, set uint64)
	visit := func(n *domparser.Node, next uint64) {
		walk(n, next&^accept)
		if next&accept != 0 {
			out = append(out, string(data[n.Span[0]:n.Span[1]]))
		}
	}
	walk = func(n *domparser.Node, set uint64) {
		if set == 0 {
			return
		}
		switch n.Kind {
		case domparser.KindObject:
			for i, k := range n.Keys {
				var next uint64
				for s := set; s != 0; s &= s - 1 {
					q := 0
					for m := s & (-s); m > 1; m >>= 1 {
						q++
					}
					if q >= len(steps) {
						continue
					}
					st := steps[q]
					switch st.Kind {
					case jsonpath.Child:
						if string(k) == st.Name {
							next |= 1 << uint(q+1)
						}
					case jsonpath.Wildcard:
						next |= 1 << uint(q+1)
					case jsonpath.Descendant:
						next |= 1 << uint(q)
						switch sel := st.Sel[0]; sel.Kind {
						case jsonpath.Child:
							if string(k) == sel.Name {
								next |= 1 << uint(q+1)
							}
						case jsonpath.Wildcard:
							next |= 1 << uint(q+1)
						}
					}
				}
				visit(n.Children[i], next)
			}
		case domparser.KindArray:
			for idx, c := range n.Children {
				var next uint64
				for s := set; s != 0; s &= s - 1 {
					q := 0
					for m := s & (-s); m > 1; m >>= 1 {
						q++
					}
					if q >= len(steps) {
						continue
					}
					st := steps[q]
					switch st.Kind {
					case jsonpath.Index, jsonpath.Slice:
						if automaton.IndexMatches(&st, idx) {
							next |= 1 << uint(q+1)
						}
					case jsonpath.Wildcard:
						next |= 1 << uint(q+1)
					case jsonpath.Descendant:
						next |= 1 << uint(q)
						switch sel := st.Sel[0]; sel.Kind {
						case jsonpath.Index, jsonpath.Slice:
							if automaton.IndexMatches(&sel, idx) {
								next |= 1 << uint(q+1)
							}
						case jsonpath.Wildcard:
							next |= 1 << uint(q+1)
						}
					}
				}
				visit(c, next)
			}
		}
	}
	walk(root, 1)
	return out
}

func TestNFADescendantRandomAgainstDOMOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7171))
	queries := []string{"$..a", "$..name", "$.a..b", "$..items[0]", "$..*", "$..a..b", "$[*]..id"}
	for trial := 0; trial < 250; trial++ {
		doc := genValue(rng, 5)
		enc, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		q := queries[trial%len(queries)]
		p := jsonpath.MustParse(q)
		got := runEngine(t, q, string(enc))
		want := domOracle(t, p.Steps, enc)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d %s:\nengine: %q\noracle: %q\ndoc: %s", trial, q, got, want, enc)
		}
	}
}

func TestNFAErrors(t *testing.T) {
	p := jsonpath.MustParse("$..a")
	e := NewEngine(automaton.New(p))
	for _, in := range []string{``, `{"a": `, `{"a" 1}`, `{1: 2}`} {
		if _, err := e.Run([]byte(in), nil); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

func TestNFASkipsDeadSubtrees(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`{"store": {"price": 7}, "noise": [`)
	for i := 0; i < 3000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"z": %d}`, i)
	}
	sb.WriteString(`]}`)
	data := sb.String()
	p := jsonpath.MustParse("$.store..price")
	e := NewEngine(automaton.New(p))
	st, err := e.Run([]byte(data), nil)
	if err != nil || st.Matches != 1 {
		t.Fatalf("st=%+v err=%v", st, err)
	}
	// The noise array is dead: G4 jumps over it once "store" matches.
	if st.FastForwardRatio() < 0.8 {
		t.Errorf("ratio = %.3f; dead subtree not skipped", st.FastForwardRatio())
	}
}

func TestNFADepthBound(t *testing.T) {
	deep := strings.Repeat(`{"a":`, 20001) + "1" + strings.Repeat("}", 20001)
	p := jsonpath.MustParse("$..a")
	e := NewEngine(automaton.New(p))
	if _, err := e.Run([]byte(deep), nil); err == nil {
		t.Fatal("expected depth-bound error")
	}
	ok := strings.Repeat(`{"a":`, 300) + "1" + strings.Repeat("}", 300)
	st, err := e.Run([]byte(ok), nil)
	if err != nil || st.Matches != 300 {
		t.Fatalf("st=%+v err=%v", st, err)
	}
}
