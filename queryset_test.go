package jsonski

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"jsonski/internal/gen"
)

func TestCompileSetErrors(t *testing.T) {
	if _, err := CompileSet(); err == nil {
		t.Fatal("empty set should error")
	}
	if _, err := CompileSet("$.ok", "$..["); err == nil {
		t.Fatal("bad member should error")
	}
}

func TestQuerySetSidecarRouting(t *testing.T) {
	// Filter, descendant, and deferred-selector queries route to sidecar
	// engines; plain path queries share one traversal. All answer.
	qs := MustCompileSet(
		"$.items[*].name",            // shared pass
		"$.items[?@.price<10]",       // filter sidecar
		"$..price",                   // descendant sidecar
		"$.items[-1]",                // deferred (negative index) sidecar
		"$.items[0]['name','price']", // deferred (union) sidecar
	)
	data := []byte(`{"items": [{"name": "a", "price": 5}, {"name": "b", "price": 20}]}`)
	got := map[int][]string{}
	_, err := qs.Run(data, func(m SetMatch) {
		got[m.Query] = append(got[m.Query], string(m.Value))
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][]string{
		0: {`"a"`, `"b"`},
		1: {`{"name": "a", "price": 5}`},
		2: {`5`, `20`},
		3: {`{"name": "b", "price": 20}`},
		4: {`"a"`, `5`},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestMustCompileSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustCompileSet("nope")
}

func TestQuerySetBasic(t *testing.T) {
	qs := MustCompileSet("$.user.name", "$.user.id", "$.tags[0]")
	data := []byte(`{"user": {"name": "ada", "id": 7, "x": 1}, "tags": ["a", "b"], "pad": {"z": 0}}`)
	got := map[int][]string{}
	st, err := qs.Run(data, func(m SetMatch) {
		got[m.Query] = append(got[m.Query], string(m.Value))
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Matches != 3 {
		t.Fatalf("matches = %d", st.Matches)
	}
	want := map[int][]string{0: {`"ada"`}, 1: {`7`}, 2: {`"a"`}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if qs.Len() != 3 || qs.Expr(1) != "$.user.id" {
		t.Fatal("metadata accessors broken")
	}
}

func TestQuerySetRootQuery(t *testing.T) {
	qs := MustCompileSet("$", "$.a")
	data := []byte(`{"a": 1}`)
	counts, err := qs.Counts(data)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 1 || counts[1] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestQuerySetSharedPrefix(t *testing.T) {
	qs := MustCompileSet("$.a.b", "$.a.c", "$.a.b") // duplicate allowed
	data := []byte(`{"a": {"b": 1, "c": 2, "d": 3}}`)
	counts, err := qs.Counts(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(counts, []int64{1, 1, 1}) {
		t.Fatalf("counts = %v", counts)
	}
}

func TestQuerySetWildcards(t *testing.T) {
	qs := MustCompileSet("$[*].v", "$[1:3].w", "$[0]")
	data := []byte(`[{"v":1,"w":9},{"v":2,"w":8},{"v":3,"w":7},{"v":4}]`)
	counts, err := qs.Counts(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(counts, []int64{4, 2, 1}) {
		t.Fatalf("counts = %v", counts)
	}
}

// TestQuerySetMatchesIndividualRuns is the differential backbone: a set
// run must produce exactly what the member queries produce alone.
func TestQuerySetMatchesIndividualRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(2468))
	sets := [][]string{
		{"$.a", "$.b"},
		{"$.a.b", "$.a[*]", "$.name"},
		{"$[*].id", "$[0:2]", "$[*].a.name"},
		{"$.items[*].v", "$.items[1:3]", "$.v", "$"},
		{"$.b[*].c", "$.c[0]", "$.a.b"},
	}
	for trial := 0; trial < 200; trial++ {
		doc := genDocForSet(rng, 5)
		enc, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		exprs := sets[trial%len(sets)]
		qs := MustCompileSet(exprs...)
		got := make([][]string, len(exprs))
		if _, err := qs.Run(enc, func(m SetMatch) {
			got[m.Query] = append(got[m.Query], string(m.Value))
		}); err != nil {
			t.Fatalf("trial %d: %v\ndoc: %s", trial, err, enc)
		}
		for qi, expr := range exprs {
			q := MustCompile(expr)
			var want []string
			if _, err := q.Run(enc, func(m Match) {
				want = append(want, string(m.Value))
			}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[qi], want) {
				t.Fatalf("trial %d query %q:\nset run: %q\nsolo run: %q\ndoc: %s",
					trial, expr, got[qi], want, enc)
			}
		}
	}
}

func genDocForSet(rng *rand.Rand, depth int) any {
	if depth <= 0 || rng.Intn(4) == 0 {
		switch rng.Intn(4) {
		case 0:
			return rng.Intn(1000)
		case 1:
			return "s" + strings.Repeat(`x{}[]:,"`, rng.Intn(3))
		case 2:
			return true
		default:
			return nil
		}
	}
	if rng.Intn(2) == 0 {
		keys := []string{"a", "b", "c", "id", "name", "items", "v"}
		m := map[string]any{}
		for i, n := 0, rng.Intn(5); i < n; i++ {
			m[keys[rng.Intn(len(keys))]] = genDocForSet(rng, depth-1)
		}
		return m
	}
	arr := make([]any, 0, 4)
	for i, n := 0, rng.Intn(5); i < n; i++ {
		arr = append(arr, genDocForSet(rng, depth-1))
	}
	return arr
}

func TestQuerySetConcurrent(t *testing.T) {
	qs := MustCompileSet("$.a", "$.b[*]")
	data := []byte(`{"a": 1, "b": [2, 3]}`)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 50; j++ {
				counts, err := qs.Counts(data)
				if err != nil {
					done <- err
					return
				}
				if counts[0] != 1 || counts[1] != 2 {
					done <- fmt.Errorf("counts = %v", counts)
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestQuerySetFastForwardStillHigh(t *testing.T) {
	qs := MustCompileSet("$.mt.vw.co[*].nm", "$.mt.id")
	var sb strings.Builder
	sb.WriteString(`{"mt": {"id": "x", "vw": {"co": [{"nm": "a"}, {"nm": "b"}]}}, "dt": [`)
	for i := 0; i < 5000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "[%d,%d]", i, i)
	}
	sb.WriteString(`]}`)
	data := []byte(sb.String())
	st, err := qs.Run(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Matches != 3 {
		t.Fatalf("matches = %d", st.Matches)
	}
	if st.FastForwardRatio() < 0.9 {
		t.Errorf("set run fast-forward ratio = %.3f", st.FastForwardRatio())
	}
}

func TestQuerySetRunRecords(t *testing.T) {
	qs := MustCompileSet("$.a", "$.b")
	records := [][]byte{
		[]byte(`{"a": 1, "b": "x"}`),
		[]byte(`{"b": "y"}`),
		[]byte(`{"a": 3}`),
	}
	var got []string
	st, err := qs.RunRecords(records, func(m SetMatch) {
		got = append(got, fmt.Sprintf("%d/%d=%s", m.Record, m.Query, m.Value))
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Matches != 4 {
		t.Fatalf("matches = %d", st.Matches)
	}
	want := []string{`0/0=1`, `0/1="x"`, `1/1="y"`, `2/0=3`}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestQuerySetRunRecordsErrorNamesRecord(t *testing.T) {
	qs := MustCompileSet("$.a")
	records := [][]byte{[]byte(`{"a": 1}`), []byte(`{"a": `)}
	_, err := qs.RunRecords(records, nil)
	if err == nil || !strings.Contains(err.Error(), "record 1:") {
		t.Fatalf("err = %v", err)
	}
}

// twoGroupPaths are 32 distinct TT paths whose shared states (each
// path's steps plus its accept state) exceed one 63-bit state set.
var twoGroupPaths = []string{
	"$.coordinates", "$.coordinates[*]", "$.created_at", "$.en", "$.en.hashtags",
	"$.en.hashtags[*]", "$.en.hashtags[*].indices", "$.en.hashtags[*].indices[*]",
	"$.en.hashtags[*].text", "$.en.urls", "$.en.urls[*]", "$.en.urls[*].expanded",
	"$.en.urls[*].expanded.full", "$.en.urls[*].expanded.meta.len", "$.en.urls[*].indices[0]",
	"$.en.urls[*].indices[*][1]", "$.en.urls[*].url", "$.id", "$.lang", "$.place",
	"$.place.bounding_box.pos[0][*]", "$.place.bounding_box.type", "$.place.name",
	"$.retweet_count", "$.source", "$.text", "$.user", "$.user.entities.description.urls",
	"$.user.followers_count", "$.user.id", "$.user.name", "$.user.screen_name",
}

// TestQuerySetTwoGroups runs a set whose shared members need more
// states than one state set holds, so CompileSet packs them into two
// groups, each its own pass. Every set entry point must still give each
// member its single-query matches.
func TestQuerySetTwoGroups(t *testing.T) {
	qs := MustCompileSet(twoGroupPaths...)
	if len(qs.passes) != 2 {
		t.Fatalf("%d passes, want two groups", len(qs.passes))
	}
	recs, err := gen.GenerateRecords("tt", 32<<10, 7)
	if err != nil {
		t.Fatal(err)
	}
	// want[r][m] holds member m's single-query matches in record r.
	want := make([][][]string, len(recs))
	for r := range recs {
		want[r] = make([][]string, len(twoGroupPaths))
	}
	for m, expr := range twoGroupPaths {
		if _, err := MustCompile(expr).RunRecords(recs, func(x Match) {
			want[x.Record][m] = append(want[x.Record][m], string(x.Value))
		}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(name string, run func(fn func(SetMatch)) error) {
		got := make([][][]string, len(recs))
		for r := range recs {
			got[r] = make([][]string, len(twoGroupPaths))
		}
		if err := run(func(x SetMatch) {
			got[x.Record][x.Query] = append(got[x.Record][x.Query], string(x.Value))
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: set matches differ from single-query runs", name)
		}
	}
	// perRecord runs a single-record entry point over each record.
	perRecord := func(run func(rec []byte, fn func(SetMatch)) error) func(fn func(SetMatch)) error {
		return func(fn func(SetMatch)) error {
			for r, rec := range recs {
				if err := run(rec, func(x SetMatch) { x.Record = r; fn(x) }); err != nil {
					return err
				}
			}
			return nil
		}
	}
	check("Run", perRecord(func(rec []byte, fn func(SetMatch)) error {
		_, err := qs.Run(rec, fn)
		return err
	}))
	check("RunIndexed", perRecord(func(rec []byte, fn func(SetMatch)) error {
		ix := BuildIndex(rec)
		defer ix.Release()
		_, err := qs.RunIndexed(ix, fn)
		return err
	}))
	check("RunRecords", func(fn func(SetMatch)) error {
		_, err := qs.RunRecords(recs, fn)
		return err
	})
	check("RunReaderContext", func(fn func(SetMatch)) error {
		_, err := qs.RunReaderContext(context.Background(), bytes.NewReader(bytes.Join(recs, []byte("\n"))), fn)
		return err
	})
	// RunSink carries no member index: it must deliver Run's spans in
	// Run's order.
	for r, rec := range recs {
		var viaRun []string
		if _, err := qs.Run(rec, func(x SetMatch) { viaRun = append(viaRun, string(x.Value)) }); err != nil {
			t.Fatal(err)
		}
		var sink BufferSink
		if _, err := qs.RunSink(rec, &sink); err != nil {
			t.Fatal(err)
		}
		viaSink := make([]string, len(sink.Values))
		for i, v := range sink.Values {
			viaSink[i] = string(v)
		}
		if !reflect.DeepEqual(viaSink, viaRun) {
			t.Fatalf("record %d: RunSink spans %q, Run spans %q", r, viaSink, viaRun)
		}
	}
}
