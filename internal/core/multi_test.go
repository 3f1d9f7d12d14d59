package core

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"jsonski/internal/automaton"
	"jsonski/internal/jsonpath"
)

// multiEngineFor builds one engine over the paths numbered in one
// automaton, as a QuerySet group runs its shared members.
func multiEngineFor(t *testing.T, exprs ...string) *Engine {
	t.Helper()
	paths := make([]*jsonpath.Path, len(exprs))
	for i, e := range exprs {
		paths[i] = jsonpath.MustParse(e)
	}
	return NewEngine(automaton.New(paths...))
}

func TestMultiEngineBasic(t *testing.T) {
	e := multiEngineFor(t, "$.a", "$.b.c", "$.d[1]")
	data := `{"a": 1, "b": {"c": 2, "x": 0}, "d": [10, 20, 30], "z": {"deep": [1]}}`
	got := map[int][]string{}
	st, err := e.Run([]byte(data), func(q, s, en int) {
		got[q] = append(got[q], data[s:en])
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][]string{0: {"1"}, 1: {"2"}, 2: {"20"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if st.Matches != 3 {
		t.Fatalf("matches = %d", st.Matches)
	}
	if st.FastForwardRatio() <= 0 {
		t.Fatal("expected some fast-forwarding (the z subtree)")
	}
}

func TestMultiEngineRootAndTypeKills(t *testing.T) {
	// object record: array-rooted query dead; "$" query emits the record
	e := multiEngineFor(t, "$[*].x", "$", "$.a")
	data := `{"a": 5}`
	got := map[int][]string{}
	_, err := e.Run([]byte(data), func(q, s, en int) {
		got[q] = append(got[q], data[s:en])
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][]string{1: {`{"a": 5}`}, 2: {"5"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestMultiEnginePrimitiveRecord(t *testing.T) {
	e := multiEngineFor(t, "$", "$.a")
	data := `  42 `
	var vals []string
	st, err := e.Run([]byte(data), func(q, s, en int) { vals = append(vals, data[s:en]) })
	if err != nil || st.Matches != 1 {
		t.Fatalf("st=%+v err=%v vals=%v", st, err, vals)
	}
}

func TestMultiEngineEmptyInput(t *testing.T) {
	e := multiEngineFor(t, "$.a")
	if _, err := e.Run([]byte("   "), nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestMultiEngineMixedArraySteps(t *testing.T) {
	// one wildcard + one slice: the union range governs G5
	e := multiEngineFor(t, "$[*]", "$[1:2]")
	data := `[ "a", "b", "c" ]`
	got := map[int]int{}
	_, err := e.Run([]byte(data), func(q, s, en int) { got[q]++ })
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestMultiEngineSliceUnion(t *testing.T) {
	e := multiEngineFor(t, "$[1:3]", "$[4:6]")
	data := `[0, 1, 2, 3, 4, 5, 6, 7]`
	got := map[int][]string{}
	_, err := e.Run([]byte(data), func(q, s, en int) {
		got[q] = append(got[q], data[s:en])
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], []string{"1", "2"}) || !reflect.DeepEqual(got[1], []string{"4", "5"}) {
		t.Fatalf("got %v", got)
	}
}

func TestMultiEngineAnyChild(t *testing.T) {
	e := multiEngineFor(t, "$.*", "$.b")
	data := `{"a": 1, "b": 2}`
	got := map[int][]string{}
	_, err := e.Run([]byte(data), func(q, s, en int) {
		got[q] = append(got[q], data[s:en])
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], []string{"1", "2"}) || !reflect.DeepEqual(got[1], []string{"2"}) {
		t.Fatalf("got %v", got)
	}
}

func TestMultiEngineSharedValueAcceptAndDescend(t *testing.T) {
	// query 0 accepts .a; query 1 descends into .a
	e := multiEngineFor(t, "$.a", "$.a.b")
	data := `{"a": {"b": 7, "c": 8}}`
	got := map[int][]string{}
	_, err := e.Run([]byte(data), func(q, s, en int) {
		got[q] = append(got[q], data[s:en])
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], []string{`{"b": 7, "c": 8}`}) {
		t.Fatalf("q0 got %v", got[0])
	}
	if !reflect.DeepEqual(got[1], []string{"7"}) {
		t.Fatalf("q1 got %v", got[1])
	}
}

func TestMultiEngineErrors(t *testing.T) {
	e := multiEngineFor(t, "$.a.b", "$.c")
	for _, in := range []string{`{"a": {"b": `, `{"a"`} {
		if _, err := e.Run([]byte(in), nil); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

func TestMultiEngineReuse(t *testing.T) {
	e := multiEngineFor(t, "$.v")
	for i := 0; i < 3; i++ {
		st, err := e.Run([]byte(`{"v": 1}`), nil)
		if err != nil || st.Matches != 1 {
			t.Fatalf("iter %d: st=%+v err=%v", i, st, err)
		}
	}
}

// TestMultiEngineRandomDifferential compares the shared pass against
// running each member query alone with the single-query engine.
func TestMultiEngineRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(8888))
	sets := [][]string{
		{"$.a", "$.b", "$.a.b"},
		{"$[*].id", "$[0:3]", "$[*].a"},
		{"$.items[*].v", "$.items[2]", "$.name"},
	}
	for trial := 0; trial < 150; trial++ {
		doc := genValue(rng, 5)
		enc, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		exprs := sets[trial%len(sets)]
		me := multiEngineFor(t, exprs...)
		got := make([][]string, len(exprs))
		if _, err := me.Run(enc, func(q, s, en int) {
			got[q] = append(got[q], string(enc[s:en]))
		}); err != nil {
			t.Fatalf("trial %d: %v\ndoc: %s", trial, err, enc)
		}
		for qi, expr := range exprs {
			want, _ := runQuery(t, expr, string(enc), false)
			if !reflect.DeepEqual(got[qi], want) {
				t.Fatalf("trial %d %q: multi %q solo %q\ndoc: %s",
					trial, expr, got[qi], want, enc)
			}
		}
	}
}
