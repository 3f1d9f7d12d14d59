package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"jsonski/internal/automaton"
	"jsonski/internal/jsonpath"
)

// tweet is the running example of the paper's Figure 1.
const tweet = `{ "coordinates" : [ 40.74118764, -73.9998279 ],
  "user" : { "id" : 6253282 },
  "place" : { "name" : "Manhattan",
              "bounding_box" : { "type" : "Polygon",
                                 "pos" : [ [ -74.026675, 40.683935 ], [ -74.026675, 40.877483 ] ] } } }`

func runQuery(t *testing.T, query, data string, noFF bool) ([]string, Stats) {
	t.Helper()
	p, err := jsonpath.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(automaton.New(p))
	e.DisableFastForward = noFF
	var got []string
	st, err := e.Run([]byte(data), func(_, s, en int) {
		got = append(got, data[s:en])
	})
	if err != nil {
		t.Fatalf("query %q: %v", query, err)
	}
	return got, st
}

func TestPaperExample(t *testing.T) {
	got, st := runQuery(t, "$.place.name", tweet, false)
	if len(got) != 1 || got[0] != `"Manhattan"` {
		t.Fatalf("matches = %q", got)
	}
	if st.Matches != 1 {
		t.Fatalf("Matches = %d", st.Matches)
	}
	// Fast-forward must cover most of the record: the coordinates array
	// (G1), the user object (G2), and bounding_box (G4).
	if r := st.FastForwardRatio(); r < 0.5 {
		t.Errorf("fast-forward ratio = %.2f, expected > 0.5", r)
	}
	per := st.GroupRatios()
	if per[0] == 0 { // G1: skipped the coordinates array (type mismatch)
		t.Error("G1 ratio = 0, expected coordinates array to be skipped by type")
	}
	if per[1] == 0 { // G2: skipped the user object (name mismatch)
		t.Error("G2 ratio = 0, expected user object to be skipped")
	}
	if per[3] == 0 { // G4: skipped bounding_box after the name match
		t.Error("G4 ratio = 0, expected object remainder skip")
	}
}

func TestPaperExampleMatchesFullParse(t *testing.T) {
	ff, _ := runQuery(t, "$.place.name", tweet, false)
	full, _ := runQuery(t, "$.place.name", tweet, true)
	if !reflect.DeepEqual(ff, full) {
		t.Fatalf("ff = %q, full = %q", ff, full)
	}
}

func TestSimpleQueries(t *testing.T) {
	data := `{"a": 1, "b": {"c": [10, 20, 30], "d": "x"}, "e": [{"f": 5}, {"f": 6}]}`
	cases := []struct {
		q    string
		want []string
	}{
		{"$.a", []string{"1"}},
		{"$.b.c", []string{"[10, 20, 30]"}},
		{"$.b.c[1]", []string{"20"}},
		{"$.b.c[0:2]", []string{"10", "20"}},
		{"$.b.c[*]", []string{"10", "20", "30"}},
		{"$.b.d", []string{`"x"`}},
		{"$.e[*].f", []string{"5", "6"}},
		{"$.e[1].f", []string{"6"}},
		{"$.nope", nil},
		{"$.b.nope", nil},
		{"$.a[0]", nil},   // a is primitive, cannot index
		{"$.b.c[9]", nil}, // out of range
		{"$[0]", nil},     // record is an object, not an array
		{"$.b.c.x", nil},  // c is an array, not an object
		{"$.*.d", []string{`"x"`}},
	}
	for _, c := range cases {
		got, _ := runQuery(t, c.q, data, false)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %q, want %q", c.q, got, c.want)
		}
		full, _ := runQuery(t, c.q, data, true)
		if !reflect.DeepEqual(full, c.want) {
			t.Errorf("%s (full): got %q, want %q", c.q, full, c.want)
		}
	}
}

func TestRootQueries(t *testing.T) {
	got, _ := runQuery(t, "$", `  {"a":1}  `, false)
	if len(got) != 1 || got[0] != `{"a":1}` {
		t.Fatalf("got %q", got)
	}
	got, _ = runQuery(t, "$", `[1,2]`, false)
	if len(got) != 1 || got[0] != `[1,2]` {
		t.Fatalf("got %q", got)
	}
	got, _ = runQuery(t, "$", `42`, false)
	if len(got) != 1 || got[0] != `42` {
		t.Fatalf("got %q", got)
	}
}

func TestRootArrayQueries(t *testing.T) {
	data := `[{"text":"a"},{"text":"b"},{"other":1},{"text":"c"}]`
	got, _ := runQuery(t, "$[*].text", data, false)
	want := []string{`"a"`, `"b"`, `"c"`}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %q", got)
	}
	got, _ = runQuery(t, "$[1:3].text", data, false)
	if !reflect.DeepEqual(got, []string{`"b"`}) {
		t.Fatalf("got %q", got)
	}
	got, _ = runQuery(t, "$[2]", data, false)
	if !reflect.DeepEqual(got, []string{`{"other":1}`}) {
		t.Fatalf("got %q", got)
	}
}

func TestNestedArrays(t *testing.T) {
	data := `{"dt": [[["a","b","c","d","e"],["f","g"]],[["h","i","j","k"]]]}`
	got, _ := runQuery(t, "$.dt[*][*][2:4]", data, false)
	want := []string{`"c"`, `"d"`, `"j"`, `"k"`}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
	full, _ := runQuery(t, "$.dt[*][*][2:4]", data, true)
	if !reflect.DeepEqual(full, want) {
		t.Fatalf("full got %q", full)
	}
}

func TestEmptyContainers(t *testing.T) {
	cases := []struct{ q, data string }{
		{"$.a.b", `{}`},
		{"$.a.b", `{"a": {}}`},
		{"$[*].x", `[]`},
		{"$.a[*]", `{"a": []}`},
		{"$.a[0]", `{"a": []}`},
	}
	for _, c := range cases {
		got, _ := runQuery(t, c.q, c.data, false)
		if len(got) != 0 {
			t.Errorf("%s over %s: got %q", c.q, c.data, got)
		}
	}
}

func TestDeepQueryGMDShape(t *testing.T) {
	// Mimics GMD1: $[*].rt[*].lg[*].st[*].dt.tx
	data := `[
	  {"rt": [
	    {"lg": [
	      {"st": [ {"dt": {"tx": "turn left", "vl": 3}, "nm": 1},
	               {"dt": {"tx": "turn right"}} ],
	       "zz": 0}
	    ], "yy": [1,2]}
	  ], "atm": "x"},
	  {"rt": []}
	]`
	got, _ := runQuery(t, "$[*].rt[*].lg[*].st[*].dt.tx", data, false)
	want := []string{`"turn left"`, `"turn right"`}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %q", got)
	}
}

func TestStringsWithStructuralChars(t *testing.T) {
	data := `{"a": "{\"fake\": [1,2]}", "b": {"c": "real}]"}, "x": ",,,"}`
	got, _ := runQuery(t, "$.b.c", data, false)
	if !reflect.DeepEqual(got, []string{`"real}]"`}) {
		t.Fatalf("got %q", got)
	}
}

func TestEscapedKeysInInput(t *testing.T) {
	data := `{"say \"hi\"": 1, "tab\tkey": 2}`
	got, _ := runQuery(t, `$['say "hi"']`, data, false)
	if !reflect.DeepEqual(got, []string{"1"}) {
		t.Fatalf("got %q", got)
	}
}

func TestMalformedInput(t *testing.T) {
	p := jsonpath.MustParse("$.a.b")
	e := NewEngine(automaton.New(p))
	bad := []string{
		``,
		`   `,
		`{"a": {"b": 1}`, // unbalanced
	}
	for _, in := range bad {
		if _, err := e.Run([]byte(in), nil); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
	// With an Unknown expected type every attribute name is examined, so
	// token-level breakage is detected there.
	p2 := jsonpath.MustParse("$.a")
	e2 := NewEngine(automaton.New(p2))
	for _, in := range []string{`{"a" 1}`, `{123: 4}`} {
		if _, err := e2.Run([]byte(in), nil); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
	// The paper's validation caveat (§3.3): a malformed attribute inside
	// a fast-forwarded run is NOT detected when the query's type filter
	// skips it wholesale. Pin that documented behaviour.
	if _, err := e.Run([]byte(`{"skipped" 1, "a": {"b": 2}}`), nil); err != nil {
		t.Errorf("fast-forwarded malformed attribute should not error, got %v", err)
	}
}

func TestEngineReuse(t *testing.T) {
	p := jsonpath.MustParse("$.a")
	e := NewEngine(automaton.New(p))
	for i := 0; i < 3; i++ {
		data := fmt.Sprintf(`{"a": %d}`, i)
		var got string
		st, err := e.Run([]byte(data), func(_, s, en int) { got = data[s:en] })
		if err != nil || got != fmt.Sprint(i) || st.Matches != 1 {
			t.Fatalf("iter %d: got %q st %+v err %v", i, got, st, err)
		}
	}
}

func TestNilEmit(t *testing.T) {
	p := jsonpath.MustParse("$.a")
	e := NewEngine(automaton.New(p))
	st, err := e.Run([]byte(`{"a":1}`), nil)
	if err != nil || st.Matches != 1 {
		t.Fatalf("st %+v err %v", st, err)
	}
}

// ---------- randomized differential testing ----------

// genValue builds a random JSON value with attribute names drawn from a
// small pool so that queries sometimes match.
func genValue(rng *rand.Rand, depth int) any {
	if depth <= 0 || rng.Intn(4) == 0 {
		switch rng.Intn(5) {
		case 0:
			return rng.Intn(10000)
		case 1:
			return "str" + strings.Repeat(`x{}[]:,\" `, rng.Intn(3))
		case 2:
			return true
		case 3:
			return rng.Float64()
		default:
			return nil
		}
	}
	if rng.Intn(2) == 0 {
		m := map[string]any{}
		keys := []string{"a", "b", "c", "d", "name", "id"}
		n := rng.Intn(5)
		for i := 0; i < n; i++ {
			m[keys[rng.Intn(len(keys))]] = genValue(rng, depth-1)
		}
		return m
	}
	n := rng.Intn(5)
	arr := make([]any, 0, n)
	for i := 0; i < n; i++ {
		arr = append(arr, genValue(rng, depth-1))
	}
	return arr
}

// oracleEval evaluates the query over the decoded document and returns
// the matched values re-encoded, in document order.
func oracleEval(t *testing.T, steps []jsonpath.Step, doc any) []string {
	t.Helper()
	var out []string
	var walk func(v any, q int)
	walk = func(v any, q int) {
		if q == len(steps) {
			enc, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(enc))
			return
		}
		st := steps[q]
		switch st.Kind {
		case jsonpath.Child:
			if m, ok := v.(map[string]any); ok {
				if c, ok := m[st.Name]; ok {
					walk(c, q+1)
				}
			}
		case jsonpath.Wildcard:
			// RFC 9535 wildcard: selects members and elements alike.
			// The input document comes from json.Marshal of a map, so
			// document order is sorted-key order; iterate to match it.
			if m, ok := v.(map[string]any); ok {
				keys := make([]string, 0, len(m))
				for k := range m {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					walk(m[k], q+1)
				}
			}
			if a, ok := v.([]any); ok {
				for _, c := range a {
					walk(c, q+1)
				}
			}
		default:
			if a, ok := v.([]any); ok {
				for i, c := range a {
					if i >= st.Lo && i < st.Hi &&
						!(st.Kind == jsonpath.Slice && st.Stride > 1 && (i-st.Lo)%st.Stride != 0) {
						walk(c, q+1)
					}
				}
			}
		}
	}
	walk(doc, 0)
	return out
}

func TestRandomDifferentialAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	queries := []string{
		"$.a", "$.a.b", "$.name", "$.a[*]", "$.a[1:3]", "$[*].id",
		"$[*].a.name", "$[2:5]", "$.b[*].c", "$[*][*]", "$.c[0]",
	}
	for trial := 0; trial < 300; trial++ {
		doc := genValue(rng, 5)
		enc, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		q := queries[trial%len(queries)]
		p := jsonpath.MustParse(q)

		// fast-forward engine
		ffGot, _ := runQuery(t, q, string(enc), false)
		// full-parse engine
		fullGot, _ := runQuery(t, q, string(enc), true)
		if !reflect.DeepEqual(ffGot, fullGot) {
			t.Fatalf("trial %d %s: ff %q != full %q\ndoc: %s", trial, q, ffGot, fullGot, enc)
		}
		// semantic oracle: compare value sets (re-encode engine spans)
		want := oracleEval(t, p.Steps, doc)
		if len(want) != len(ffGot) {
			t.Fatalf("trial %d %s: engine found %d, oracle %d\ndoc: %s\nengine: %q\noracle: %q",
				trial, q, len(ffGot), len(want), enc, ffGot, want)
		}
		for i := range want {
			var a, b any
			if err := json.Unmarshal([]byte(ffGot[i]), &a); err != nil {
				t.Fatalf("trial %d: engine emitted invalid JSON %q", trial, ffGot[i])
			}
			if err := json.Unmarshal([]byte(want[i]), &b); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("trial %d %s: match %d = %q, oracle %q", trial, q, i, ffGot[i], want[i])
			}
		}
	}
}

func TestFastForwardRatioHighOnSelectiveQuery(t *testing.T) {
	// A large object where only one late attribute matters.
	var sb strings.Builder
	sb.WriteString(`{"pad": [`)
	for i := 0; i < 2000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"x": %d}`, i)
	}
	sb.WriteString(`], "target": {"v": 1}, "tail": "t"}`)
	data := sb.String()
	got, st := runQuery(t, "$.target.v", data, false)
	if !reflect.DeepEqual(got, []string{"1"}) {
		t.Fatalf("got %q", got)
	}
	if r := st.FastForwardRatio(); r < 0.95 {
		t.Errorf("fast-forward ratio = %.3f, want > 0.95", r)
	}
}

func TestStatsFields(t *testing.T) {
	_, st := runQuery(t, "$.place.name", tweet, false)
	if st.InputBytes != int64(len(tweet)) {
		t.Errorf("InputBytes = %d", st.InputBytes)
	}
	if st.WordsProcessed == 0 {
		t.Error("WordsProcessed = 0")
	}
	var zero Stats
	if zero.FastForwardRatio() != 0 {
		t.Error("zero Stats ratio should be 0")
	}
}

// TestGroupAblationsPreserveResults verifies that disabling any single
// fast-forward group changes only the work, never the matches.
func TestGroupAblationsPreserveResults(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	queries := []string{"$.a.b", "$.a[1:3]", "$[*].id", "$.items[*].v", "$[2:5]", "$.b[*].c"}
	for trial := 0; trial < 120; trial++ {
		doc := genValue(rng, 5)
		enc, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		q := queries[trial%len(queries)]
		want, _ := runQuery(t, q, string(enc), false)
		for _, disabled := range []uint8{1 << 0, 1 << 3, 1 << 4, 1<<0 | 1<<3 | 1<<4} {
			p := jsonpath.MustParse(q)
			e := NewEngine(automaton.New(p))
			e.DisabledGroups = disabled
			var got []string
			if _, err := e.Run(enc, func(_, s, en int) { got = append(got, string(enc[s:en])) }); err != nil {
				t.Fatalf("trial %d %s disabled=%b: %v", trial, q, disabled, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s disabled=%b: got %q want %q\ndoc: %s",
					trial, q, disabled, got, want, enc)
			}
		}
	}
}

// TestGroupAblationReducesSkipAccounting sanity-checks that disabling G4
// on a G4-heavy query removes (nearly) all G4-charged bytes.
func TestGroupAblationReducesSkipAccounting(t *testing.T) {
	_, full := runQuery(t, "$.place.name", tweet, false)
	if full.GroupRatios()[3] == 0 {
		t.Fatal("expected G4 work on the paper example")
	}
	p := jsonpath.MustParse("$.place.name")
	e := NewEngine(automaton.New(p))
	e.DisabledGroups = 1 << 3
	st, err := e.Run([]byte(tweet), nil)
	if err != nil || st.Matches != 1 {
		t.Fatalf("st=%+v err=%v", st, err)
	}
	if st.GroupRatios()[3] != 0 {
		t.Fatalf("G4 disabled but still charged: %v", st.GroupRatios())
	}
}
