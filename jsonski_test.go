package jsonski

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"jsonski/internal/baseline/domparser"
)

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("$.."); err == nil {
		t.Fatal("bare '..' should be rejected")
	}
	if _, err := Compile("nope"); err == nil {
		t.Fatal("missing $ should be rejected")
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustCompile("bad")
}

func TestRunBasic(t *testing.T) {
	q := MustCompile("$.place.name")
	data := []byte(`{"coordinates":[1,2],"user":{"id":6},"place":{"name":"Manhattan","bounding_box":{"pos":[[1,2]]}}}`)
	var got []string
	st, err := q.Run(data, func(m Match) { got = append(got, string(m.Value)) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{`"Manhattan"`}) {
		t.Fatalf("got %q", got)
	}
	if st.Matches != 1 || st.InputBytes != int64(len(data)) {
		t.Fatalf("st = %+v", st)
	}
	if st.FastForwardRatio() <= 0 {
		t.Fatal("expected nonzero fast-forward ratio")
	}
}

func TestMatchFields(t *testing.T) {
	q := MustCompile("$.a")
	data := []byte(`{"a": 42}`)
	q.Run(data, func(m Match) {
		if string(data[m.Start:m.End]) != string(m.Value) || string(m.Value) != "42" {
			t.Fatalf("m = %+v", m)
		}
		if m.Record != 0 {
			t.Fatalf("Record = %d", m.Record)
		}
	})
}

func TestCountAndAll(t *testing.T) {
	q := MustCompile("$[*].v")
	data := []byte(`[{"v":1},{"v":2},{"x":3},{"v":4}]`)
	n, err := q.Count(data)
	if err != nil || n != 3 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	vals, err := q.All(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || string(vals[0]) != "1" || string(vals[2]) != "4" {
		t.Fatalf("vals = %q", vals)
	}
}

func TestRunRecords(t *testing.T) {
	q := MustCompile("$.v")
	records := [][]byte{
		[]byte(`{"v": "a"}`),
		[]byte(`{"x": 0}`),
		[]byte(`{"v": "c"}`),
	}
	var got []string
	st, err := q.RunRecords(records, func(m Match) {
		got = append(got, fmt.Sprintf("%d:%s", m.Record, m.Value))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{`0:"a"`, `2:"c"`}) {
		t.Fatalf("got %q", got)
	}
	if st.Matches != 2 {
		t.Fatalf("st = %+v", st)
	}
}

func TestRunRecordsParallel(t *testing.T) {
	q := MustCompile("$.v")
	const n = 500
	records := make([][]byte, n)
	for i := range records {
		records[i] = []byte(fmt.Sprintf(`{"pad": [%d,%d], "v": %d}`, i, i, i))
	}
	var mu sync.Mutex
	var got []int
	st, err := q.RunRecordsParallel(records, 8, func(m Match) {
		mu.Lock()
		got = append(got, m.Record)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Matches != n {
		t.Fatalf("Matches = %d", st.Matches)
	}
	sort.Ints(got)
	for i, r := range got {
		if r != i {
			t.Fatalf("record %d missing (got[%d]=%d)", i, i, r)
		}
	}
}

func TestRunRecordsParallelFallsBackSerial(t *testing.T) {
	q := MustCompile("$.v")
	records := [][]byte{[]byte(`{"v":1}`)}
	st, err := q.RunRecordsParallel(records, 16, nil)
	if err != nil || st.Matches != 1 {
		t.Fatalf("st=%+v err=%v", st, err)
	}
}

func TestRunRecordsError(t *testing.T) {
	q := MustCompile("$.a.b")
	records := [][]byte{
		[]byte(`{"a": {"b": 1}}`),
		[]byte(`{"a": {`), // truncated
	}
	if _, err := q.RunRecords(records, nil); err == nil {
		t.Fatal("expected error")
	}
	if _, err := q.RunRecordsParallel(append(records, records[0]), 4, nil); err == nil {
		t.Fatal("expected error from parallel run")
	}
}

func TestConcurrentQueriesShareCompiled(t *testing.T) {
	q := MustCompile("$.x[*]")
	data := []byte(`{"x": [1,2,3]}`)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				n, err := q.Count(data)
				if err != nil || n != 3 {
					t.Errorf("n=%d err=%v", n, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestQueryString(t *testing.T) {
	if MustCompile("$.a[1:2]").String() != "$.a[1:2]" {
		t.Fatal("String() broken")
	}
}

func TestStatsRatios(t *testing.T) {
	var s Stats
	if s.FastForwardRatio() != 0 || s.GroupRatio(0) != 0 {
		t.Fatal("zero stats should have zero ratios")
	}
	s.InputBytes = 100
	s.SkippedBytes[3] = 50
	if s.GroupRatio(3) != 0.5 || s.FastForwardRatio() != 0.5 {
		t.Fatal("ratio math broken")
	}
	if s.GroupRatio(-1) != 0 || s.GroupRatio(5) != 0 {
		t.Fatal("out-of-range group should be 0")
	}
}

func ExampleQuery_Run() {
	q := MustCompile("$.user.name")
	data := []byte(`{"id": 1, "user": {"name": "ada", "karma": 9000}}`)
	q.Run(data, func(m Match) {
		fmt.Println(string(m.Value))
	})
	// Output: "ada"
}

func TestDescendantQueries(t *testing.T) {
	q := MustCompile("$..name")
	data := []byte(`{"a": {"name": "x"}, "name": "y", "list": [{"name": "z"}]}`)
	var got []string
	st, err := q.Run(data, func(m Match) { got = append(got, string(m.Value)) })
	if err != nil {
		t.Fatal(err)
	}
	if st.Matches != 3 || len(got) != 3 {
		t.Fatalf("matches=%d got=%q", st.Matches, got)
	}
	// descendant queries work through every entry point
	n, err := q.Count(data)
	if err != nil || n != 3 {
		t.Fatalf("Count=%d err=%v", n, err)
	}
	recs := [][]byte{data, data}
	stp, err := q.RunRecordsParallel(recs, 2, nil)
	if err != nil || stp.Matches != 6 {
		t.Fatalf("parallel st=%+v err=%v", stp, err)
	}
}

func TestDescendantAllowedInSets(t *testing.T) {
	// Descendant queries route to a sidecar engine within the set.
	qs, err := CompileSet("$.ok", "$..nope")
	if err != nil {
		t.Fatalf("descendant in set should compile: %v", err)
	}
	counts, err := qs.Counts([]byte(`{"ok": 1, "deep": {"nope": 2}}`))
	if err != nil || counts[0] != 1 || counts[1] != 1 {
		t.Fatalf("counts=%v err=%v", counts, err)
	}
}

// TestCompileOverlongPathsAnswerLikeDOM checks paths longer than the
// engine's state set: the engine streams the first 62 steps and the DOM
// evaluates the rest, and a filter chain past the bound takes the
// full-parse plan. Each answers like the DOM reference.
func TestCompileOverlongPathsAnswerLikeDOM(t *testing.T) {
	nest := func(name string, n int) string {
		return strings.Repeat(`{"`+name+`":`, n) + "1" + strings.Repeat("}", n)
	}
	for _, tc := range []struct{ expr, doc string }{
		{"$" + strings.Repeat(".a", 70), nest("a", 70)},
		{"$..b" + strings.Repeat(".b", 69), `{"x":` + nest("b", 70) + `}`},
		{"$[?@" + strings.Repeat(".a", 70) + " == 1]", "[" + nest("a", 70) + `,{"a":1}]`},
	} {
		want, err := domparser.Compile(tc.expr)
		if err != nil {
			t.Fatal(err)
		}
		var wantVals []string
		if _, err := want.Run([]byte(tc.doc), func(s, e int) { wantVals = append(wantVals, tc.doc[s:e]) }); err != nil {
			t.Fatal(err)
		}
		q, err := Compile(tc.expr)
		if err != nil {
			t.Fatalf("%.20s…: %v", tc.expr, err)
		}
		got, err := q.All([]byte(tc.doc))
		if err != nil {
			t.Fatalf("%.20s…: %v", tc.expr, err)
		}
		if len(wantVals) != 1 || fmt.Sprintf("%s", got) != fmt.Sprint(wantVals) {
			t.Errorf("%.20s…: got %s, DOM reference %s", tc.expr, got, wantVals)
		}
	}
}

// TestDescendantDuplicateNamesFollowFirst pins what a named child step
// before a descendant does with a repeated member name: G4 leaves the
// object after the first match, so `$.a..b` answers from the first "a"
// only, as `$.a.b` and the DOM reference do.
func TestDescendantDuplicateNamesFollowFirst(t *testing.T) {
	doc := []byte(`{"a":{"b":1},"a":{"b":2}}`)
	for _, expr := range []string{"$.a..b", "$.a.b"} {
		got, err := MustCompile(expr).All(doc)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := domparser.Compile(expr)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		if _, err := ref.Run(doc, func(s, e int) { want = append(want, string(doc[s:e])) }); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%s", got) != "[1]" || fmt.Sprint(want) != "[1]" {
			t.Errorf("%s: got %s, DOM reference %s; want [1]", expr, got, want)
		}
	}
}
