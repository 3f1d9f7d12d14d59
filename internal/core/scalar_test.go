package core

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"jsonski/internal/automaton"
	"jsonski/internal/jsonpath"
)

func runScalar(t *testing.T, query, data string) ([]string, Stats) {
	t.Helper()
	p, err := jsonpath.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	e := NewScalarEngine(automaton.New(p))
	var got []string
	st, err := e.Run([]byte(data), func(_, s, en int) { got = append(got, data[s:en]) })
	if err != nil {
		t.Fatalf("scalar %q: %v", query, err)
	}
	return got, st
}

func TestScalarPaperExample(t *testing.T) {
	got, st := runScalar(t, "$.place.name", tweet)
	if len(got) != 1 || got[0] != `"Manhattan"` {
		t.Fatalf("matches = %q", got)
	}
	if st.FastForwardRatio() < 0.5 {
		t.Errorf("scalar engine should still *account* skips: ratio %.2f", st.FastForwardRatio())
	}
}

func TestScalarMatchesEngineOnRandomDocs(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	queries := []string{
		"$.a", "$.a.b", "$.name", "$.a[*]", "$.a[1:3]", "$[*].id",
		"$[*].a.name", "$[2:5]", "$.b[*].c", "$[*][*]", "$.c[0]", "$",
	}
	for trial := 0; trial < 200; trial++ {
		doc := genValue(rng, 5)
		enc, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		q := queries[trial%len(queries)]
		ffGot, _ := runQuery(t, q, string(enc), false)
		scGot, _ := runScalar(t, q, string(enc))
		if !reflect.DeepEqual(ffGot, scGot) {
			t.Fatalf("trial %d %s: engine %q != scalar %q\ndoc: %s", trial, q, ffGot, scGot, enc)
		}
	}
}

func TestScalarErrors(t *testing.T) {
	p := jsonpath.MustParse("$.a.b")
	e := NewScalarEngine(automaton.New(p))
	for _, in := range []string{``, `{"a": {"b": 1}`, `{"a" 1}`} {
		if _, err := e.Run([]byte(in), nil); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

func TestScalarStrings(t *testing.T) {
	data := `{"x": "fake\" }{", "y": {"z": [1, "t]"]}}`
	got, _ := runScalar(t, "$.y.z[1]", data)
	if !reflect.DeepEqual(got, []string{`"t]"`}) {
		t.Fatalf("got %q", got)
	}
}
