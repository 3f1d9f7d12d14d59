package jsonski_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"jsonski"
	"jsonski/internal/automaton"
	"jsonski/internal/baseline/charstream"
	"jsonski/internal/baseline/domparser"
	"jsonski/internal/baseline/index"
	"jsonski/internal/baseline/tape"
	"jsonski/internal/core"
	"jsonski/internal/gen"
	"jsonski/internal/jsonpath"
	"jsonski/internal/queries"
)

// paperQueries re-exports the Table 5 bindings for the crosscheck tests.
func paperQueries() []queries.Q { return queries.All }

// method adapts every implementation to a common signature.
type method struct {
	name string
	eval func(query string, data []byte) ([]string, error)
}

func methods() []method {
	return []method{
		{"jsonski", func(q string, data []byte) ([]string, error) {
			cq, err := jsonski.Compile(q)
			if err != nil {
				return nil, err
			}
			var out []string
			_, err = cq.Run(data, func(m jsonski.Match) { out = append(out, string(m.Value)) })
			return out, err
		}},
		{"jsonski-indexed", func(q string, data []byte) ([]string, error) {
			cq, err := jsonski.Compile(q)
			if err != nil {
				return nil, err
			}
			ix := jsonski.BuildIndex(data)
			defer ix.Release()
			var out []string
			_, err = cq.RunIndexed(ix, func(m jsonski.Match) { out = append(out, string(m.Value)) })
			return out, err
		}},
		{"charstream", func(q string, data []byte) ([]string, error) {
			ev, err := charstream.Compile(q)
			if err != nil {
				return nil, err
			}
			var out []string
			_, err = ev.Run(data, func(s, e int) { out = append(out, string(data[s:e])) })
			return out, err
		}},
		{"domparser", func(q string, data []byte) ([]string, error) {
			ev, err := domparser.Compile(q)
			if err != nil {
				return nil, err
			}
			var out []string
			_, err = ev.Run(data, func(s, e int) { out = append(out, string(data[s:e])) })
			return out, err
		}},
		{"tape", func(q string, data []byte) ([]string, error) {
			ev, err := tape.Compile(q)
			if err != nil {
				return nil, err
			}
			var out []string
			_, err = ev.Run(data, func(s, e int) { out = append(out, string(data[s:e])) })
			return out, err
		}},
		{"index", func(q string, data []byte) ([]string, error) {
			ev, err := index.Compile(q)
			if err != nil {
				return nil, err
			}
			var out []string
			_, err = ev.Run(data, func(s, e int) { out = append(out, string(data[s:e])) })
			return out, err
		}},
	}
}

// normalize reduces each matched value to canonical JSON so span
// differences in whitespace don't count as disagreements.
func normalize(t *testing.T, vals []string) []string {
	t.Helper()
	out := make([]string, 0, len(vals))
	for _, v := range vals {
		var x any
		if err := json.Unmarshal([]byte(v), &x); err != nil {
			t.Fatalf("invalid JSON emitted: %q (%v)", v, err)
		}
		enc, _ := json.Marshal(x)
		out = append(out, string(enc))
	}
	return out
}

func genValue(rng *rand.Rand, depth int) any {
	if depth <= 0 || rng.Intn(4) == 0 {
		switch rng.Intn(5) {
		case 0:
			return rng.Intn(10000)
		case 1:
			return `s{}[],:"\` + strings.Repeat("x", rng.Intn(8))
		case 2:
			return true
		case 3:
			return -rng.Float64() * 1e6
		default:
			return nil
		}
	}
	if rng.Intn(2) == 0 {
		keys := []string{"a", "b", "c", "id", "name", "items", "v"}
		m := map[string]any{}
		for i, n := 0, rng.Intn(5); i < n; i++ {
			m[keys[rng.Intn(len(keys))]] = genValue(rng, depth-1)
		}
		return m
	}
	arr := make([]any, 0, 4)
	for i, n := 0, rng.Intn(5); i < n; i++ {
		arr = append(arr, genValue(rng, depth-1))
	}
	return arr
}

// TestAllMethodsAgree is the cross-validation backbone: every method must
// produce the same multiset of matches on random documents. Order can
// legitimately differ only for .* (not generated here), so exact order is
// required.
func TestAllMethodsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	queries := []string{
		"$.a", "$.a.b", "$.items[*]", "$.items[1:3]", "$[*].id",
		"$[*].a.name", "$[0]", "$[2:5]", "$.b[*].c", "$[*][*]",
		"$.v", "$.items[*].v", "$",
	}
	ms := methods()
	for trial := 0; trial < 250; trial++ {
		doc := genValue(rng, 5)
		enc, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		q := queries[trial%len(queries)]
		var ref []string
		for i, m := range ms {
			got, err := m.eval(q, enc)
			if err != nil {
				t.Fatalf("trial %d %s %s: %v\ndoc: %s", trial, m.name, q, err, enc)
			}
			norm := normalize(t, got)
			if i == 0 {
				ref = norm
				continue
			}
			if len(norm) != len(ref) {
				t.Fatalf("trial %d %s on %s: %d matches, jsonski found %d\ndoc: %s\n%v\nvs\n%v",
					trial, m.name, q, len(norm), len(ref), enc, norm, ref)
			}
			for j := range norm {
				if norm[j] != ref[j] {
					t.Fatalf("trial %d %s on %s: match %d = %q, jsonski %q\ndoc: %s",
						trial, m.name, q, j, norm[j], ref[j], enc)
				}
			}
		}
	}
}

// TestAllMethodsAgreeOnPaperShapes exercises the 12 query structures of
// Table 5 on documents shaped like the matching datasets.
func TestAllMethodsAgreeOnPaperShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	type shaped struct {
		query string
		doc   func() any
	}
	randText := func() string {
		return strings.Repeat("tweet text, with [brackets] and {braces}: ", rng.Intn(3)+1)
	}
	tweet := func() any {
		m := map[string]any{
			"text": randText(),
			"user": map[string]any{"id": rng.Intn(1e6)},
		}
		if rng.Intn(2) == 0 {
			urls := []any{}
			for i := 0; i < rng.Intn(3); i++ {
				urls = append(urls, map[string]any{"url": fmt.Sprintf("https://x.test/%d", i), "idx": []any{1, 2}})
			}
			m["en"] = map[string]any{"urls": urls, "tags": []any{"a", "b"}}
		}
		return m
	}
	shapes := []shaped{
		{"$[*].en.urls[*].url", func() any {
			arr := []any{}
			for i := 0; i < 20; i++ {
				arr = append(arr, tweet())
			}
			return arr
		}},
		{"$[*].text", func() any {
			arr := []any{}
			for i := 0; i < 20; i++ {
				arr = append(arr, tweet())
			}
			return arr
		}},
		{"$.pd[*].cp[1:3].id", func() any {
			pd := []any{}
			for i := 0; i < 15; i++ {
				cp := []any{}
				for j := 0; j < rng.Intn(6); j++ {
					cp = append(cp, map[string]any{"id": j, "w": randText()})
				}
				pd = append(pd, map[string]any{"cp": cp, "sku": i})
			}
			return map[string]any{"pd": pd, "total": 15}
		}},
		{"$.dt[*][*][2:4]", func() any {
			dt := []any{}
			for i := 0; i < 5; i++ {
				row := []any{}
				for j := 0; j < rng.Intn(4); j++ {
					cell := []any{}
					for k := 0; k < rng.Intn(7); k++ {
						cell = append(cell, rng.Intn(100))
					}
					row = append(row, cell)
				}
				dt = append(dt, row)
			}
			return map[string]any{"dt": dt}
		}},
		{"$[10:21].cl.P150[*].ms.pty", func() any {
			arr := []any{}
			for i := 0; i < 30; i++ {
				p150 := []any{}
				for j := 0; j < rng.Intn(3); j++ {
					p150 = append(p150, map[string]any{"ms": map[string]any{"pty": j}})
				}
				arr = append(arr, map[string]any{"cl": map[string]any{"P150": p150}, "id": i})
			}
			return arr
		}},
	}
	ms := methods()
	for si, sh := range shapes {
		for trial := 0; trial < 10; trial++ {
			enc, err := json.Marshal(sh.doc())
			if err != nil {
				t.Fatal(err)
			}
			var ref []string
			for i, m := range ms {
				got, err := m.eval(sh.query, enc)
				if err != nil {
					t.Fatalf("shape %d %s: %v", si, m.name, err)
				}
				norm := normalize(t, got)
				sort.Strings(norm) // map key order varies per method? no—but keep robust
				if i == 0 {
					ref = norm
					continue
				}
				if fmt.Sprint(norm) != fmt.Sprint(ref) {
					t.Fatalf("shape %d trial %d %s on %s:\n%v\nvs jsonski\n%v",
						si, trial, m.name, sh.query, norm, ref)
				}
			}
		}
	}
}

// TestAllMethodsAgreeOnPrettyPrintedDocs re-runs the differential check
// on indented documents: whitespace between every token stresses the
// SkipWS paths and span trimming of all five methods.
func TestAllMethodsAgreeOnPrettyPrintedDocs(t *testing.T) {
	rng := rand.New(rand.NewSource(888))
	queries := []string{"$.a", "$.items[1:3]", "$[*].id", "$.b[*].c", "$[0]", "$.items[*].v"}
	ms := methods()
	for trial := 0; trial < 100; trial++ {
		doc := genValue(rng, 4)
		enc, err := json.MarshalIndent(doc, "", "    ")
		if err != nil {
			t.Fatal(err)
		}
		q := queries[trial%len(queries)]
		var ref []string
		for i, m := range ms {
			got, err := m.eval(q, enc)
			if err != nil {
				t.Fatalf("trial %d %s %s: %v\ndoc: %s", trial, m.name, q, err, enc)
			}
			norm := normalize(t, got)
			if i == 0 {
				ref = norm
				continue
			}
			if fmt.Sprint(norm) != fmt.Sprint(ref) {
				t.Fatalf("trial %d %s on %s (pretty):\n%v\nvs jsonski\n%v\ndoc: %s",
					trial, m.name, q, norm, ref, enc)
			}
		}
	}
}

// recMatch identifies one match of a record-sequence run for comparison
// across entry points: record index plus the canonicalized value.
type recMatch struct {
	rec int
	val string
}

// canonical reduces one raw match value to canonical JSON.
func canonical(t *testing.T, v []byte) string {
	t.Helper()
	var x any
	if err := json.Unmarshal(v, &x); err != nil {
		t.Fatalf("invalid JSON emitted: %q (%v)", v, err)
	}
	enc, _ := json.Marshal(x)
	return string(enc)
}

// domRecordMatches evaluates query over each record with the DOM
// baseline, returning matches in (record, document-order) sequence.
func domRecordMatches(t *testing.T, query string, records [][]byte) []recMatch {
	t.Helper()
	ev, err := domparser.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	var out []recMatch
	for i, rec := range records {
		rec := rec
		if _, err := ev.Run(rec, func(s, e int) {
			out = append(out, recMatch{rec: i, val: canonical(t, rec[s:e])})
		}); err != nil {
			t.Fatalf("dom record %d: %v", i, err)
		}
	}
	return out
}

func sameRecMatches(t *testing.T, label string, got, want []recMatch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, DOM baseline found %d\ngot:  %v\nwant: %v",
			label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d = %+v, DOM baseline %+v", label, i, got[i], want[i])
		}
	}
}

// genRecords produces a batch of marshalled random documents plus the
// equivalent NDJSON stream.
func genRecords(t *testing.T, rng *rand.Rand, n int) (records [][]byte, ndjson []byte) {
	t.Helper()
	var buf strings.Builder
	for i := 0; i < n; i++ {
		enc, err := json.Marshal(genValue(rng, 4))
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, enc)
		buf.Write(enc)
		buf.WriteByte('\n')
	}
	return records, []byte(buf.String())
}

// TestRecordEntryPointsAgreeWithDOM drives every record-sequence entry
// point — RunRecords, RunReaderContext, RunReaderParallelContext, and
// their QuerySet counterparts — over the same batch of random records
// and requires each to reproduce the DOM baseline's per-record matches.
func TestRecordEntryPointsAgreeWithDOM(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	queries := []string{"$.a", "$.items[*]", "$[*].id", "$.b[*].c", "$[0]", "$.items[1:3]"}
	for trial := 0; trial < 8; trial++ {
		records, ndjson := genRecords(t, rng, 25)
		query := queries[trial%len(queries)]
		want := domRecordMatches(t, query, records)
		cq, err := jsonski.Compile(query)
		if err != nil {
			t.Fatal(err)
		}

		var got []recMatch
		collect := func(m jsonski.Match) {
			got = append(got, recMatch{rec: m.Record, val: canonical(t, m.Value)})
		}

		got = nil
		if _, err := cq.RunRecords(records, collect); err != nil {
			t.Fatalf("RunRecords %s: %v", query, err)
		}
		sameRecMatches(t, "RunRecords "+query, got, want)

		got = nil
		if _, err := cq.RunReaderContext(context.Background(), bytes.NewReader(ndjson), collect); err != nil {
			t.Fatalf("RunReaderContext %s: %v", query, err)
		}
		sameRecMatches(t, "RunReaderContext "+query, got, want)

		// Parallel callback order is unspecified; matches of these pool
		// queries are disjoint, so (record, start) restores input order.
		type posMatch struct {
			rec, start int
			val        string
		}
		var par []posMatch
		var mu sync.Mutex
		if _, err := cq.RunReaderParallelContext(context.Background(), bytes.NewReader(ndjson), 4,
			func(m jsonski.Match) {
				v := canonical(t, m.Value)
				mu.Lock()
				par = append(par, posMatch{rec: m.Record, start: m.Start, val: v})
				mu.Unlock()
			}); err != nil {
			t.Fatalf("RunReaderParallelContext %s: %v", query, err)
		}
		sort.Slice(par, func(i, j int) bool {
			if par[i].rec != par[j].rec {
				return par[i].rec < par[j].rec
			}
			return par[i].start < par[j].start
		})
		got = got[:0]
		for _, p := range par {
			got = append(got, recMatch{rec: p.rec, val: p.val})
		}
		sameRecMatches(t, "RunReaderParallelContext "+query, got, want)

		// Single-expression QuerySet entry points must match too.
		qs, err := jsonski.CompileSet(query)
		if err != nil {
			t.Fatal(err)
		}
		collectSet := func(m jsonski.SetMatch) {
			if m.Query != 0 {
				t.Fatalf("single-expression set emitted query index %d", m.Query)
			}
			got = append(got, recMatch{rec: m.Record, val: canonical(t, m.Value)})
		}
		got = nil
		if _, err := qs.RunRecords(records, collectSet); err != nil {
			t.Fatalf("QuerySet.RunRecords %s: %v", query, err)
		}
		sameRecMatches(t, "QuerySet.RunRecords "+query, got, want)

		got = nil
		if _, err := qs.RunReaderContext(context.Background(), bytes.NewReader(ndjson), collectSet); err != nil {
			t.Fatalf("QuerySet.RunReaderContext %s: %v", query, err)
		}
		sameRecMatches(t, "QuerySet.RunReaderContext "+query, got, want)
	}
}

// TestQuerySetReaderAgreesWithDOMPerQuery runs multi-expression
// QuerySets through every QuerySet entry point and compares each
// member's matches with the DOM baseline. The first set puts sidecar
// members (a filter, a union, a negative index) before and between the
// shared ones, so a reader that skipped sidecars or reported shared
// matches under engine positions instead of set positions fails here;
// the second set has no shared member at all.
func TestQuerySetReaderAgreesWithDOMPerQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(90210))
	records, ndjson := genRecords(t, rng, 30)
	for _, exprs := range [][]string{
		{"$.items[?@.a]", "$.a", "$['v','a']", "$.items[*]", "$[*].id", "$.items[-1]", "$.b[*].c"},
		{"$.items[?@.a]", "$['v','a']", "$.items[-1]"},
	} {
		want := make([][]recMatch, len(exprs))
		for qi, expr := range exprs {
			want[qi] = domRecordMatches(t, expr, records)
		}
		qs, err := jsonski.CompileSet(exprs...)
		if err != nil {
			t.Fatal(err)
		}

		run := func(label string, eval func(fn func(jsonski.SetMatch)) error) {
			got := make([][]recMatch, len(exprs))
			if err := eval(func(m jsonski.SetMatch) {
				got[m.Query] = append(got[m.Query], recMatch{rec: m.Record, val: canonical(t, m.Value)})
			}); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for qi, expr := range exprs {
				sameRecMatches(t, label+" "+expr, got[qi], want[qi])
			}
		}
		// perRecord drives a single-record entry point over each record,
		// restoring the record index the entry point does not know.
		perRecord := func(eval func(rec []byte, fn func(jsonski.SetMatch)) error) func(func(jsonski.SetMatch)) error {
			return func(fn func(jsonski.SetMatch)) error {
				for i, rec := range records {
					if err := eval(rec, func(m jsonski.SetMatch) {
						m.Record = i
						fn(m)
					}); err != nil {
						return err
					}
				}
				return nil
			}
		}
		run("QuerySet.RunRecords", func(fn func(jsonski.SetMatch)) error {
			_, err := qs.RunRecords(records, fn)
			return err
		})
		run("QuerySet.RunReaderContext", func(fn func(jsonski.SetMatch)) error {
			_, err := qs.RunReaderContext(context.Background(), bytes.NewReader(ndjson), fn)
			return err
		})
		run("QuerySet.Run", perRecord(func(rec []byte, fn func(jsonski.SetMatch)) error {
			_, err := qs.Run(rec, fn)
			return err
		}))
		run("QuerySet.RunIndexed", perRecord(func(rec []byte, fn func(jsonski.SetMatch)) error {
			ix := jsonski.BuildIndex(rec)
			defer ix.Release()
			_, err := qs.RunIndexed(ix, fn)
			return err
		}))

		// The flat sink entry points carry no member index: they must
		// deliver the attributed run's values in the same order, and
		// Counts its per-member totals.
		for i, rec := range records {
			var attributed []string
			counts := make([]int64, len(exprs))
			if _, err := qs.Run(rec, func(m jsonski.SetMatch) {
				attributed = append(attributed, string(m.Value))
				counts[m.Query]++
			}); err != nil {
				t.Fatal(err)
			}
			var flat, flatIx jsonski.BufferSink
			if _, err := qs.RunSink(rec, &flat); err != nil {
				t.Fatalf("QuerySet.RunSink record %d: %v", i, err)
			}
			ix := jsonski.BuildIndex(rec)
			_, err := qs.RunIndexedSink(ix, &flatIx)
			ix.Release()
			if err != nil {
				t.Fatalf("QuerySet.RunIndexedSink record %d: %v", i, err)
			}
			for _, sink := range []jsonski.BufferSink{flat, flatIx} {
				var vals []string
				for _, v := range sink.Values {
					vals = append(vals, string(v))
				}
				if fmt.Sprint(vals) != fmt.Sprint(attributed) {
					t.Fatalf("%v record %d: sink run %q, callback run %q", exprs, i, vals, attributed)
				}
			}
			got, err := qs.Counts(rec)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(counts) {
				t.Fatalf("%v record %d: Counts %v, callback run %v", exprs, i, got, counts)
			}
		}
	}
}

// TestIndexedEntryPointsAgree pins the borrowed-index entry points to
// their lazy twins on random documents: same matches, same order.
func TestIndexedEntryPointsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	exprs := []string{"$.a", "$.items[*]", "$[*].id", "$.b[*].c"}
	qs := jsonski.MustCompileSet(exprs...)
	for trial := 0; trial < 40; trial++ {
		enc, err := json.Marshal(genValue(rng, 5))
		if err != nil {
			t.Fatal(err)
		}
		ix := jsonski.BuildIndex(enc)
		var lazySet, ixSet []string
		if _, err := qs.Run(enc, func(m jsonski.SetMatch) {
			lazySet = append(lazySet, fmt.Sprintf("%d:%s", m.Query, m.Value))
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := qs.RunIndexed(ix, func(m jsonski.SetMatch) {
			ixSet = append(ixSet, fmt.Sprintf("%d:%s", m.Query, m.Value))
		}); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(lazySet) != fmt.Sprint(ixSet) {
			t.Fatalf("QuerySet indexed run diverged\nlazy:    %v\nindexed: %v\ndoc: %s",
				lazySet, ixSet, enc)
		}
		ix.Release()
	}
}

// TestJSONSkiOnGeneratedDatasetsMatchesDOM runs each paper query over a
// fresh seed and compares jsonski's match count with the DOM baseline.
func TestJSONSkiOnGeneratedDatasetsMatchesDOM(t *testing.T) {
	for _, q := range paperQueries() {
		data, err := gen.Generate(q.Dataset, 1<<19, 99)
		if err != nil {
			t.Fatal(err)
		}
		cq := jsonski.MustCompile(q.Large)
		n1, err := cq.Count(data)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		ev, _ := domparser.Compile(q.Large)
		n2, err := ev.Count(data)
		if err != nil {
			t.Fatalf("%s dom: %v", q.ID, err)
		}
		if n1 != n2 {
			t.Errorf("%s: jsonski %d, dom %d", q.ID, n1, n2)
		}
	}
}

// ctsCase is one entry of testdata/rfc9535/cts.json (the shape of the
// community JSONPath compliance suite, authored here from the RFC's
// worked examples — see testdata/rfc9535/README.md).
type ctsCase struct {
	Name            string            `json:"name"`
	Selector        string            `json:"selector"`
	Document        json.RawMessage   `json:"document"`
	Result          []json.RawMessage `json:"result"`
	InvalidSelector bool              `json:"invalid_selector"`
	Unordered       bool              `json:"unordered"`
}

// rfc9535Skips is the drift-detecting allowlist: cases named here are
// expected to FAIL for the recorded reason. A case that starts passing
// fails the suite until its entry is removed, so the allowlist can only
// shrink.
var rfc9535Skips = map[string]string{}

// ctsEntryPoints adapts every public evaluation surface plus the
// internal baselines to one signature. ordered reports whether the
// entry point preserves document order.
type ctsEntryPoint struct {
	name    string
	ordered bool
	eval    func(q *jsonski.Query, sel string, data []byte) ([]string, error)
}

func ctsEntryPoints() []ctsEntryPoint {
	collect := func(out *[]string) func(jsonski.Match) {
		return func(m jsonski.Match) { *out = append(*out, string(m.Value)) }
	}
	return []ctsEntryPoint{
		{"Run", true, func(q *jsonski.Query, _ string, data []byte) ([]string, error) {
			var out []string
			_, err := q.Run(data, collect(&out))
			return out, err
		}},
		{"RunIndexed", true, func(q *jsonski.Query, _ string, data []byte) ([]string, error) {
			ix := jsonski.BuildIndex(data)
			defer ix.Release()
			var out []string
			_, err := q.RunIndexed(ix, collect(&out))
			return out, err
		}},
		{"All", true, func(q *jsonski.Query, _ string, data []byte) ([]string, error) {
			vals, err := q.All(data)
			out := make([]string, len(vals))
			for i, v := range vals {
				out[i] = string(v)
			}
			return out, err
		}},
		{"QuerySet", true, func(_ *jsonski.Query, sel string, data []byte) ([]string, error) {
			qs, err := jsonski.CompileSet(sel)
			if err != nil {
				return nil, err
			}
			var out []string
			_, err = qs.Run(data, func(m jsonski.SetMatch) { out = append(out, string(m.Value)) })
			return out, err
		}},
		{"RunSinkExplain", true, func(q *jsonski.Query, _ string, data []byte) ([]string, error) {
			var sink jsonski.BufferSink
			_, err := q.RunSinkExplain(data, &sink, 0)
			out := make([]string, len(sink.Values))
			for i, v := range sink.Values {
				out[i] = string(v)
			}
			return out, err
		}},
		{"baseline/domparser", true, func(_ *jsonski.Query, sel string, data []byte) ([]string, error) {
			ev, err := domparser.Compile(sel)
			if err != nil {
				return nil, err
			}
			var out []string
			_, err = ev.Run(data, func(s, e int) { out = append(out, string(data[s:e])) })
			return out, err
		}},
		{"baseline/tape", true, func(_ *jsonski.Query, sel string, data []byte) ([]string, error) {
			ev, err := tape.Compile(sel)
			if err != nil {
				return nil, err
			}
			var out []string
			_, err = ev.Run(data, func(s, e int) { out = append(out, string(data[s:e])) })
			return out, err
		}},
		{"baseline/index", true, func(_ *jsonski.Query, sel string, data []byte) ([]string, error) {
			ev, err := index.Compile(sel)
			if err != nil {
				return nil, err
			}
			var out []string
			_, err = ev.Run(data, func(s, e int) { out = append(out, string(data[s:e])) })
			return out, err
		}},
	}
}

// evalCTSCase runs one suite case through every entry point; the first
// disagreement is returned as an error.
func evalCTSCase(tc ctsCase) error {
	if tc.InvalidSelector {
		if _, err := jsonski.Compile(tc.Selector); err == nil {
			return fmt.Errorf("Compile(%q) accepted an invalid selector", tc.Selector)
		}
		if _, err := charstream.Compile(tc.Selector); err == nil {
			return fmt.Errorf("charstream.Compile(%q) accepted an invalid selector", tc.Selector)
		}
		return nil
	}
	q, err := jsonski.Compile(tc.Selector)
	if err != nil {
		return fmt.Errorf("Compile(%q): %v", tc.Selector, err)
	}
	want := make([]string, len(tc.Result))
	for i, r := range tc.Result {
		var x any
		if err := json.Unmarshal(r, &x); err != nil {
			return fmt.Errorf("bad expected result %d: %v", i, err)
		}
		enc, _ := json.Marshal(x)
		want[i] = string(enc)
	}
	data := []byte(tc.Document)
	p, err := jsonpath.Parse(tc.Selector)
	if err != nil {
		return err
	}
	eps := ctsEntryPoints()
	// The character-level baseline streams through the automaton alone,
	// so it joins only for fully DFA-streamable paths.
	if !p.HasDescendant() && p.SplitPoint() < 0 {
		eps = append(eps, ctsEntryPoint{"baseline/charstream", true,
			func(_ *jsonski.Query, sel string, data []byte) ([]string, error) {
				ev, err := charstream.Compile(sel)
				if err != nil {
					return nil, err
				}
				var out []string
				_, err = ev.Run(data, func(s, e int) { out = append(out, string(data[s:e])) })
				return out, err
			}})
	}
	for _, ep := range eps {
		got, err := ep.eval(q, tc.Selector, data)
		if err != nil {
			return fmt.Errorf("%s: %v", ep.name, err)
		}
		norm := make([]string, len(got))
		for i, v := range got {
			var x any
			if err := json.Unmarshal([]byte(v), &x); err != nil {
				return fmt.Errorf("%s emitted invalid JSON %q: %v", ep.name, v, err)
			}
			enc, _ := json.Marshal(x)
			norm[i] = string(enc)
		}
		exp := append([]string(nil), want...)
		if tc.Unordered || !ep.ordered {
			sort.Strings(norm)
			sort.Strings(exp)
		}
		if fmt.Sprint(norm) != fmt.Sprint(exp) {
			return fmt.Errorf("%s:\n got  %v\n want %v", ep.name, norm, exp)
		}
	}
	return nil
}

// TestRFC9535Compliance runs the vendored compliance suite through
// every evaluation entry point. Failures outside the allowlist fail the
// build; allowlisted cases that pass also fail the build (drift), so
// coverage gaps cannot silently persist.
func TestRFC9535Compliance(t *testing.T) {
	raw, err := os.ReadFile("testdata/rfc9535/cts.json")
	if err != nil {
		t.Fatal(err)
	}
	var suite struct {
		Tests []ctsCase `json:"tests"`
	}
	if err := json.Unmarshal(raw, &suite); err != nil {
		t.Fatal(err)
	}
	if len(suite.Tests) < 80 {
		t.Fatalf("suite has only %d cases; expected the full vendored set", len(suite.Tests))
	}
	seen := map[string]bool{}
	for _, tc := range suite.Tests {
		tc := tc
		if seen[tc.Name] {
			t.Fatalf("duplicate case name %q", tc.Name)
		}
		seen[tc.Name] = true
		t.Run(tc.Name, func(t *testing.T) {
			err := evalCTSCase(tc)
			if reason, skip := rfc9535Skips[tc.Name]; skip {
				if err == nil {
					t.Fatalf("case passes but is allowlisted (%q); remove it from rfc9535Skips", reason)
				}
				t.Skipf("allowlisted: %s (%v)", reason, err)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	for name := range rfc9535Skips {
		if !seen[name] {
			t.Errorf("rfc9535Skips entry %q matches no case", name)
		}
	}
}

// TestDuplicateNamesAnswerTheFirst pins one answer for an object that
// repeats a member name: the first member's, as the DOM reference
// keeps it. A named-child state leaves the object's live set once it
// matches, so the engine, its G4 and full-parse ablations (which scan on
// past the match) and a set's shared pass all agree.
func TestDuplicateNamesAnswerTheFirst(t *testing.T) {
	cases := []struct{ query, data, want string }{
		{"$.a", `{"a":1,"a":2}`, "1"},
		{"$.a.b", `{"a":{"b":1,"b":2},"a":{"b":3}}`, "1"},
		{"$[*].a", `[{"a":1,"a":2}]`, "1"},
		{"$..a.b", `{"a":{"b":1,"b":2}}`, "1"},
	}
	for _, tc := range cases {
		data := []byte(tc.data)
		answers := map[string]func() ([]string, error){
			"domparser": func() ([]string, error) {
				ev, err := domparser.Compile(tc.query)
				if err != nil {
					return nil, err
				}
				var out []string
				_, err = ev.Run(data, func(s, e int) { out = append(out, string(data[s:e])) })
				return out, err
			},
			"set": func() ([]string, error) {
				var out []string
				_, err := jsonski.MustCompileSet(tc.query, "$.x").Run(data, func(m jsonski.SetMatch) {
					if m.Query == 0 {
						out = append(out, string(m.Value))
					}
				})
				return out, err
			},
		}
		for name, ablate := range map[string]func(*core.Engine){
			"engine":     func(*core.Engine) {},
			"G4 off":     func(e *core.Engine) { e.DisabledGroups = 1 << 3 },
			"full parse": func(e *core.Engine) { e.DisableFastForward = true },
		} {
			answers[name] = func() ([]string, error) {
				e := core.NewEngine(automaton.New(jsonpath.MustParse(tc.query)))
				ablate(e)
				var out []string
				_, err := e.Run(data, func(_, s, en int) { out = append(out, string(data[s:en])) })
				return out, err
			}
		}
		for name, run := range answers {
			got, err := run()
			if err != nil {
				t.Fatalf("%s %s over %s: %v", name, tc.query, tc.data, err)
			}
			if strings.Join(got, " ") != tc.want {
				t.Errorf("%s %s over %s = %q, want %s", name, tc.query, tc.data, got, tc.want)
			}
		}
	}
}
