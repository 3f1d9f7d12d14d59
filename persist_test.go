package jsonski

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func persistDoc() []byte {
	return []byte(`{"store":{"book":[` +
		`{"title":"A","price":8,"tags":["x","y"]},` +
		`{"title":"B","price":12,"tags":[]},` +
		`{"title":"C,]}","price":31}` +
		`]},"expensive":10}`)
}

// TestSaveLoadIndexQueryEquivalence proves a query over a loaded
// (mapped) index produces exactly the matches of a direct run and of a
// freshly built index.
func TestSaveLoadIndexQueryEquivalence(t *testing.T) {
	data := persistDoc()
	path := filepath.Join(t.TempDir(), "doc"+IndexExt)
	built := BuildIndex(data)
	defer built.Release()
	if err := SaveIndex(path, built, nil); err != nil {
		t.Fatalf("SaveIndex: %v", err)
	}
	loaded, spans, err := LoadIndex(path)
	if err != nil {
		t.Fatalf("LoadIndex: %v", err)
	}
	defer loaded.Release()
	if len(spans) != 0 {
		t.Fatalf("unexpected spans: %v", spans)
	}
	if !loaded.Mapped() {
		t.Fatal("loaded index should be Mapped")
	}
	if built.Mapped() {
		t.Fatal("built index should not be Mapped")
	}

	for _, expr := range []string{
		"$.store.book[*].title", "$.store.book[1:3].price", "$..price", "$.expensive",
	} {
		q := MustCompile(expr)
		collect := func(run func(fn func(Match)) (Stats, error)) []string {
			var got []string
			if _, err := run(func(m Match) { got = append(got, string(m.Value)) }); err != nil {
				t.Fatalf("%s: %v", expr, err)
			}
			return got
		}
		direct := collect(func(fn func(Match)) (Stats, error) { return q.Run(data, fn) })
		mem := collect(func(fn func(Match)) (Stats, error) { return q.RunIndexed(built, fn) })
		mapped := collect(func(fn func(Match)) (Stats, error) { return q.RunIndexed(loaded, fn) })
		if len(direct) == 0 {
			t.Fatalf("%s: no matches", expr)
		}
		if fmt.Sprint(mem) != fmt.Sprint(direct) || fmt.Sprint(mapped) != fmt.Sprint(direct) {
			t.Fatalf("%s: direct=%v mem=%v mapped=%v", expr, direct, mem, mapped)
		}
	}
}

// TestRecordSpansAndWindow checks RecordSpans against the reader's
// record semantics and queries individual records through
// RunIndexedWindow on a loaded corpus index.
func TestRecordSpansAndWindow(t *testing.T) {
	corpus := []byte("{\"v\":1}\n\n  {\"v\":2}  \r\n{\"v\":3}")
	spans := RecordSpans(corpus)
	if len(spans) != 3 {
		t.Fatalf("spans: %v", spans)
	}
	for i, want := range []string{`{"v":1}`, `{"v":2}`, `{"v":3}`} {
		if got := string(corpus[spans[i].Start:spans[i].End]); got != want {
			t.Fatalf("span %d: %q", i, got)
		}
	}

	path := filepath.Join(t.TempDir(), "corpus"+IndexExt)
	ix := BuildIndex(corpus)
	err := SaveIndex(path, ix, spans)
	ix.Release()
	if err != nil {
		t.Fatal(err)
	}
	loaded, lspans, err := LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Release()
	if len(lspans) != 3 {
		t.Fatalf("loaded spans: %v", lspans)
	}

	q := MustCompile("$.v")
	for i, sp := range lspans {
		var vals []string
		st, err := q.RunIndexedWindow(loaded, int(sp.Start), int(sp.End), func(m Match) {
			vals = append(vals, string(m.Value))
		})
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		want := fmt.Sprintf("%d", i+1)
		if len(vals) != 1 || vals[0] != want {
			t.Fatalf("record %d: got %v, want [%s]", i, vals, want)
		}
		if st.Matches != 1 {
			t.Fatalf("record %d stats: %+v", i, st)
		}
	}
}

// TestRecordSpansMatchReader frames NDJSON whose lines start or end
// with Unicode spaces (U+0085, U+00A0, U+2028), lines holding only one
// of those, \v or \f, and CRLF endings, through the sidecar path
// (RecordSpans and RunIndexedWindow) and the reader path (RunReader).
// Both must report the same records, record indices and matches, and
// fail on the same record.
func TestRecordSpansMatchReader(t *testing.T) {
	inputs := []string{
		"\u0085{\"a\":1}\n{\"a\":2}\n",
		"{\"a\":1}\u0085\n\u00a0{\"a\":2}\u2028\n\u2028{\"a\":3}\u00a0\n",
		"{\"a\":1}\n\u0085\n\u00a0\n\u2028\n\v\n\f\n{\"a\":2}",
		"{\"a\":1}\r\n\r\n{\"a\":2}\r\n",
		"{\"a\":1}\n\u00a0\n{\"a\":{\"b\"\n",
	}
	for _, in := range inputs {
		for _, expr := range []string{"$.a", "$.a.b"} {
			q := MustCompile(expr)
			var viaReader []string
			_, rerr := q.RunReader(strings.NewReader(in), func(m Match) {
				viaReader = append(viaReader, fmt.Sprintf("%d:%s", m.Record, m.Value))
			})

			var viaSpans []string
			var serr error
			data := []byte(in)
			ix := BuildIndex(data)
			for i, sp := range RecordSpans(data) {
				_, err := q.RunIndexedWindow(ix, int(sp.Start), int(sp.End), func(m Match) {
					viaSpans = append(viaSpans, fmt.Sprintf("%d:%s", i, m.Value))
				})
				if err != nil {
					serr = fmt.Errorf("record %d: %w", i, err)
					break
				}
			}
			ix.Release()

			if fmt.Sprint(viaSpans) != fmt.Sprint(viaReader) {
				t.Errorf("%q %s: sidecar matched %q, reader %q", in, expr, viaSpans, viaReader)
			}
			if fmt.Sprint(serr) != fmt.Sprint(rerr) {
				t.Errorf("%q %s: sidecar failed with %v, reader with %v", in, expr, serr, rerr)
			}
		}
	}
}

// TestPublicCatalog smoke-tests the public wrapper: put, hit, restart
// warming, delete.
func TestPublicCatalog(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCatalog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := persistDoc()
	if ix, _ := c.Get(data); ix != nil {
		t.Fatal("hit on empty catalog")
	}
	ix, _, err := c.Put(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix.Release()
	ix, _ = c.Get(data)
	if ix == nil || !ix.Mapped() {
		t.Fatal("expected mapped hit")
	}
	q := MustCompile("$.expensive")
	var got []byte
	if _, err := q.RunIndexed(ix, func(m Match) { got = append([]byte(nil), m.Value...) }); err != nil {
		t.Fatal(err)
	}
	ix.Release()
	if !bytes.Equal(got, []byte("10")) {
		t.Fatalf("catalog-served query: %q", got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Builds != 1 {
		t.Fatalf("stats: %+v", st)
	}
	c.Close()

	c2, err := OpenCatalog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if st := c2.Stats(); st.Opens != 1 || st.Entries != 1 {
		t.Fatalf("warm stats: %+v", st)
	}
	if !c2.Contains(ContentHash(data)) {
		t.Fatal("warm catalog lost the entry")
	}
	if !c2.Delete(ContentHash(data)) {
		t.Fatal("delete failed")
	}
	if c2.Len() != 0 {
		t.Fatal("entry survives delete")
	}
}
