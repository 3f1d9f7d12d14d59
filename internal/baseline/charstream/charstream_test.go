package charstream

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func mustEval(t *testing.T, expr, data string) []string {
	t.Helper()
	ev, err := Compile(expr)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	if _, err := ev.Run([]byte(data), func(s, e int) { got = append(got, data[s:e]) }); err != nil {
		t.Fatalf("%s: %v", expr, err)
	}
	return got
}

func TestBasicQueries(t *testing.T) {
	data := `{"a": 1, "b": {"c": [10, 20, 30]}, "e": [{"f": 5}, {"f": 6}]}`
	cases := []struct {
		q    string
		want []string
	}{
		{"$.a", []string{"1"}},
		{"$.b.c[1]", []string{"20"}},
		{"$.b.c[*]", []string{"10", "20", "30"}},
		{"$.e[*].f", []string{"5", "6"}},
		{"$.nope", nil},
		{"$", []string{data}},
	}
	for _, c := range cases {
		if got := mustEval(t, c.q, data); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %q want %q", c.q, got, c.want)
		}
	}
}

func TestStringsWithMetachars(t *testing.T) {
	data := `{"x": "fake\": {", "y": {"z": "hit"}}`
	got := mustEval(t, "$.y.z", data)
	if !reflect.DeepEqual(got, []string{`"hit"`}) {
		t.Fatalf("got %q", got)
	}
}

func TestErrors(t *testing.T) {
	ev, _ := Compile("$.a")
	for _, in := range []string{"", `{"a": "unterminated`, `{"a" 1}`, `{1:2}`} {
		if _, err := ev.Run([]byte(in), nil); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

// TestCompileRejectsWhatItCannotEvaluate: descendants and the deferred
// selectors need more than one state per level or the container length,
// so Compile refuses them rather than answer wrongly.
func TestCompileRejectsWhatItCannotEvaluate(t *testing.T) {
	for _, q := range []string{"$..a", "$['a','b']", "$[-1]", "$.b[-1:]", "$.b[::-1]", "$.b[0]..a"} {
		if _, err := Compile(q); err == nil {
			t.Errorf("Compile(%q) accepted a path it cannot evaluate", q)
		}
	}
	data := []byte(`{"x":{"a":1},"a":2,"b":[{"a":3}]}`)
	for q, want := range map[string]int64{"$.a": 1, "$.b[0].a": 1, "$.b[*]": 1, "$.b[?@.a]": 1, "$.b[0:1]": 1} {
		ev, err := Compile(q)
		if err != nil {
			t.Fatalf("Compile(%q): %v", q, err)
		}
		if n, err := ev.Count(data); err != nil || n != want {
			t.Errorf("%s: %d matches, err %v; want %d", q, n, err, want)
		}
	}
}

func genArray(n int) string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"id": %d, "tags": ["a,b", "c]d"], "v": {"x": %d}}`, i, i*i)
	}
	sb.WriteByte(']')
	return sb.String()
}

func TestParallelMatchesSerial(t *testing.T) {
	data := genArray(500)
	for _, q := range []string{"$[*].id", "$[*].v.x", "$[10:20].id", "$[3]", "$[*].tags[1]"} {
		ev, err := Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := ev.Count([]byte(data))
		if err != nil {
			t.Fatal(err)
		}
		par, err := ev.ParallelCount([]byte(data), 8)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if par != serial {
			t.Errorf("%s: parallel %d != serial %d", q, par, serial)
		}
	}
}

func TestParallelEmitsSameValues(t *testing.T) {
	data := genArray(200)
	q := "$[*].v.x"
	ev, _ := Compile(q)
	var serial []string
	ev.Run([]byte(data), func(s, e int) { serial = append(serial, data[s:e]) })
	var mu sync.Mutex
	var par []string
	if _, err := ev.ParallelRun([]byte(data), 8, func(s, e int) {
		mu.Lock()
		par = append(par, data[s:e])
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if len(par) != len(serial) {
		t.Fatalf("parallel %d values, serial %d", len(par), len(serial))
	}
	seen := map[string]int{}
	for _, v := range serial {
		seen[v]++
	}
	for _, v := range par {
		seen[v]--
	}
	for v, n := range seen {
		if n != 0 {
			t.Errorf("value %q count mismatch %d", v, n)
		}
	}
}

func TestParallelLeadingChildStep(t *testing.T) {
	inner := genArray(300)
	data := `{"meta": {"n": 300}, "pd": ` + inner + `, "tail": [1,2,3]}`
	ev, _ := Compile("$.pd[*].id")
	serial, _ := ev.Count([]byte(data))
	par, err := ev.ParallelCount([]byte(data), 8)
	if err != nil {
		t.Fatal(err)
	}
	if serial != 300 || par != serial {
		t.Fatalf("serial %d par %d", serial, par)
	}
}

func TestParallelChildOnlyPath(t *testing.T) {
	data := `{"a": {"b": {"c": 7}}}`
	ev, _ := Compile("$.a.b.c")
	par, err := ev.ParallelCount([]byte(data), 4)
	if err != nil || par != 1 {
		t.Fatalf("par %d err %v", par, err)
	}
}

func TestParallelNoMatch(t *testing.T) {
	ev, _ := Compile("$.missing[*].x")
	par, err := ev.ParallelCount([]byte(`{"a": [1,2,3]}`), 4)
	if err != nil || par != 0 {
		t.Fatalf("par %d err %v", par, err)
	}
}

func TestParallelRandomEscapesNearChunkBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sb strings.Builder
	sb.WriteByte('[')
	for i := 0; i < 400; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		// strings dense with backslashes and braces to stress the
		// speculation boundaries
		fmt.Fprintf(&sb, `{"s": "%s", "id": %d}`,
			strings.Repeat(`\\`, rng.Intn(6))+`{[,]}`+strings.Repeat(`\"`, rng.Intn(4)), i)
	}
	sb.WriteByte(']')
	data := sb.String()
	ev, _ := Compile("$[*].id")
	serial, err := ev.Count([]byte(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 16} {
		par, err := ev.ParallelCount([]byte(data), workers)
		if err != nil {
			t.Fatal(err)
		}
		if par != serial {
			t.Fatalf("workers %d: par %d serial %d", workers, par, serial)
		}
	}
}
