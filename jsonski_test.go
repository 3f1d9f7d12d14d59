package jsonski

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
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
	// Descendant queries route to a sidecar NFA engine within the set.
	qs, err := CompileSet("$.ok", "$..nope")
	if err != nil {
		t.Fatalf("descendant in set should compile: %v", err)
	}
	counts, err := qs.Counts([]byte(`{"ok": 1, "deep": {"nope": 2}}`))
	if err != nil || counts[0] != 1 || counts[1] != 1 {
		t.Fatalf("counts=%v err=%v", counts, err)
	}
}

func TestCompileRejectsOverlongDescendantPath(t *testing.T) {
	expr := "$..a" + strings.Repeat(".b", 70)
	if _, err := Compile(expr); err == nil {
		t.Fatal("expected length error")
	}
}

// TestRunIndexedWindowBounds checks that a window outside the index is
// an error naming the window and the index length, delivered before any
// evaluation, while in-range windows, empty ones included, behave like
// Run over the same bytes.
func TestRunIndexedWindowBounds(t *testing.T) {
	data := []byte(`{"a":[1,2,3],"b":{"c":4}}`)
	q := MustCompile("$.a[*]")
	ix := BuildIndex(data)
	defer ix.Release()
	for _, tc := range []struct {
		lo, hi  int
		inRange bool
	}{
		{-1, 3, false},
		{0, 35, false},
		{10, 5, false},
		{0, len(data), true},
		{10, 10, true},
	} {
		name := fmt.Sprintf("[%d,%d)", tc.lo, tc.hi)
		var got []string
		st, err := q.RunIndexedWindow(ix, tc.lo, tc.hi, func(m Match) { got = append(got, string(m.Value)) })
		if !tc.inRange {
			want := fmt.Sprintf("window [%d, %d) is outside the index's %d bytes", tc.lo, tc.hi, len(data))
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: err = %v, want one containing %q", name, err, want)
			}
			if got != nil || st != (Stats{}) {
				t.Fatalf("%s: out-of-range window evaluated: matches %q, stats %+v", name, got, st)
			}
			var sink BufferSink
			if _, err := q.RunIndexedWindowSink(ix, tc.lo, tc.hi, &sink); err == nil || sink.data != nil {
				t.Fatalf("%s: sink run err = %v, sink begun = %v", name, err, sink.data != nil)
			}
			continue
		}
		var want []string
		wantSt, wantErr := q.Run(data[tc.lo:tc.hi], func(m Match) { want = append(want, string(m.Value)) })
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: err = %v, Run gives %v", name, err, wantErr)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || st.Matches != wantSt.Matches || st.InputBytes != wantSt.InputBytes {
			t.Fatalf("%s: matches %q (stats %+v), Run gives %q (stats %+v)", name, got, st, want, wantSt)
		}
	}
}
