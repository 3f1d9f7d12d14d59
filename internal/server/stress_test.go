package server

import (
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
)

// TestStressSingleDocIndexCacheConcurrent hammers the single-document
// path (which runs through the structural-index cache) and the NDJSON
// path from many goroutines over a shared working set, under the
// server's bounded worker pool. Run with -race this covers concurrent
// index Get/Release against cache eviction; the body checks make mask
// corruption visible as wrong match output.
func TestStressSingleDocIndexCacheConcurrent(t *testing.T) {
	// A tiny index-cache budget keeps eviction constant while requests
	// still hold evicted indexes.
	_, ts := newTestServer(t, Config{Workers: 4, IndexCacheBytes: 2048})
	docs := make([]string, 4)
	for i := range docs {
		docs[i] = fmt.Sprintf(`{"a": {"b": %d}, "pad": "%s"}`, i, strings.Repeat("x", 64*i))
	}
	queryURL := ts.URL + "/query?path=" + url.QueryEscape("$.a.b")
	multiURL := ts.URL + "/multi?path=" + url.QueryEscape("$.a.b") + "&path=" + url.QueryEscape("$.pad")

	var wg sync.WaitGroup
	errc := make(chan error, 12)
	for g := 0; g < 12; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 25; it++ {
				d := (g + it) % len(docs)
				switch it % 3 {
				case 0, 1: // single JSON document -> index cache path
					code, body := post(t, queryURL, "application/json", docs[d])
					want := fmt.Sprintf(`{"record":0,"value":%d}`+"\n", d)
					if code != http.StatusOK || body != want {
						errc <- fmt.Errorf("goroutine %d iter %d: status %d body %q, want %q", g, it, code, body, want)
						return
					}
				case 2: // NDJSON stream -> lazy path, same pool
					var in strings.Builder
					for r := 0; r < 10; r++ {
						in.WriteString(docs[(d+r)%len(docs)])
						in.WriteByte('\n')
					}
					code, body := post(t, queryURL, "application/x-ndjson", in.String())
					if code != http.StatusOK {
						errc <- fmt.Errorf("goroutine %d iter %d: ndjson status %d: %s", g, it, code, body)
						return
					}
					lines := strings.Split(strings.TrimSpace(body), "\n")
					if len(lines) != 10 {
						errc <- fmt.Errorf("goroutine %d iter %d: %d ndjson lines, want 10", g, it, len(lines))
						return
					}
					for r, ln := range lines {
						want := fmt.Sprintf(`{"record":%d,"value":%d}`, r, (d+r)%len(docs))
						if ln != want {
							errc <- fmt.Errorf("goroutine %d iter %d: line %d = %q, want %q", g, it, r, ln, want)
							return
						}
					}
				}
				if it%7 == 0 { // single-doc multi also rides the index cache
					code, body := post(t, multiURL, "application/json", docs[d])
					if code != http.StatusOK || !strings.Contains(body, fmt.Sprintf(`{"record":0,"query":0,"value":%d}`, d)) {
						errc <- fmt.Errorf("goroutine %d iter %d: multi status %d body %q", g, it, code, body)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	snap := getMetrics(t, ts.URL)
	ic := snap.IndexCache
	if !ic.Enabled {
		t.Fatal("index cache should be enabled")
	}
	if ic.Hits == 0 {
		t.Fatalf("no index cache hits across repeated posts of shared documents: %+v", ic)
	}
	if ic.Hits+ic.Misses == 0 || ic.BytesIndexed == 0 {
		t.Fatalf("index cache metrics look dead: %+v", ic)
	}
	if ic.Bytes > ic.CapBytes {
		t.Fatalf("index cache retains %d bytes over budget %d", ic.Bytes, ic.CapBytes)
	}
}

// TestStressRFC9535SelectorsConcurrent drives the full RFC 9535
// selector surface — skip-eligible and full-parse filters, unions,
// stepped slices, negative indices, and descendant segments — through
// /query and /multi from many goroutines while a tiny index-cache
// budget forces constant eviction. Under -race this covers the filter
// probe runtimes, the segmented (deferred) engines, and the query-set
// sidecar routing against concurrent index Get/Release; exact body
// checks make any cross-request state leakage visible as wrong output.
func TestStressRFC9535SelectorsConcurrent(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, IndexCacheBytes: 2048})
	docs := make([]string, 4)
	for i := range docs {
		// Raw bytes matter: /query emits the matched span verbatim, so
		// the documents are written without spaces inside the items.
		docs[i] = fmt.Sprintf(
			`{"items": [{"name":"a","price":%d}, {"name":"b","price":%d}], "max": 10, "pad": "%s"}`,
			i, i+10, strings.Repeat("y", 48*i))
	}
	type shape struct {
		path string
		// want renders the exact expected body for document d; nlines
		// is used instead when the emission order is engine-defined.
		want   func(d int) string
		nlines int
	}
	shapes := []shape{
		{path: "$.items[?@.price < 10]", // skip-eligible filter probe
			want: func(d int) string { return fmt.Sprintf(`{"record":0,"value":{"name":"a","price":%d}}`+"\n", d) }},
		{path: "$.items[?@.price < $.max]", // absolute ref -> full-parse plan
			want: func(d int) string { return fmt.Sprintf(`{"record":0,"value":{"name":"a","price":%d}}`+"\n", d) }},
		{path: "$.items[0]['name','price']", // union
			want: func(d int) string {
				return fmt.Sprintf(`{"record":0,"value":"a"}`+"\n"+`{"record":0,"value":%d}`+"\n", d)
			}},
		{path: "$.items[::2].price", // stepped slice
			want: func(d int) string { return fmt.Sprintf(`{"record":0,"value":%d}`+"\n", d) }},
		{path: "$.items[-1].price", // negative index -> segmented engine
			want: func(d int) string { return fmt.Sprintf(`{"record":0,"value":%d}`+"\n", d+10) }},
		{path: "$..price", nlines: 2}, // descendant: order engine-defined
	}
	multiURL := ts.URL + "/multi?path=" + url.QueryEscape("$.items[*].name") +
		"&path=" + url.QueryEscape("$.items[?@.price >= 10].price") +
		"&path=" + url.QueryEscape("$.max")

	var wg sync.WaitGroup
	errc := make(chan error, 12)
	for g := 0; g < 12; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				d := (g + it) % len(docs)
				sh := shapes[(g*7+it)%len(shapes)]
				u := ts.URL + "/query?path=" + url.QueryEscape(sh.path)
				code, body := post(t, u, "application/json", docs[d])
				if code != http.StatusOK {
					errc <- fmt.Errorf("goroutine %d iter %d: %s status %d: %s", g, it, sh.path, code, body)
					return
				}
				if sh.want != nil {
					if want := sh.want(d); body != want {
						errc <- fmt.Errorf("goroutine %d iter %d: %s over doc %d = %q, want %q", g, it, sh.path, d, body, want)
						return
					}
				} else if n := len(strings.Split(strings.TrimSpace(body), "\n")); n != sh.nlines {
					errc <- fmt.Errorf("goroutine %d iter %d: %s over doc %d: %d lines, want %d", g, it, sh.path, d, n, sh.nlines)
					return
				}
				if it%5 == 0 { // mixed shared+sidecar query set
					code, body := post(t, multiURL, "application/json", docs[d])
					if code != http.StatusOK {
						errc <- fmt.Errorf("goroutine %d iter %d: multi status %d: %s", g, it, code, body)
						return
					}
					for _, want := range []string{
						`{"record":0,"query":0,"value":"a"}`,
						`{"record":0,"query":0,"value":"b"}`,
						fmt.Sprintf(`{"record":0,"query":1,"value":%d}`, d+10),
						`{"record":0,"query":2,"value":10}`,
					} {
						if !strings.Contains(body, want) {
							errc <- fmt.Errorf("goroutine %d iter %d: multi body %q missing %q", g, it, body, want)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	ic := getMetrics(t, ts.URL).IndexCache
	if ic.Hits+ic.Misses == 0 {
		t.Fatalf("index cache saw no traffic: %+v", ic)
	}
	if ic.Bytes > ic.CapBytes {
		t.Fatalf("index cache retains %d bytes over budget %d", ic.Bytes, ic.CapBytes)
	}
}

// TestIndexCacheDisabled checks that a negative budget turns the cache
// off: single-document requests still work, metrics report it disabled.
func TestIndexCacheDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, IndexCacheBytes: -1})
	if s.IndexCache() != nil {
		t.Fatal("negative budget should disable the index cache")
	}
	code, body := post(t, ts.URL+"/query?path="+url.QueryEscape("$.v"), "application/json", `{"v": 3}`)
	if code != http.StatusOK || body != `{"record":0,"value":3}`+"\n" {
		t.Fatalf("status %d body %q", code, body)
	}
	if snap := getMetrics(t, ts.URL); snap.IndexCache.Enabled {
		t.Fatal("metrics report index cache enabled")
	}
}

// TestIndexCacheMetricsCountRepeatedDocument pins the hit accounting:
// posting the same single document N times yields one miss and N-1 hits.
func TestIndexCacheMetricsCountRepeatedDocument(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	doc := `{"a": {"b": 42}}`
	u := ts.URL + "/query?path=" + url.QueryEscape("$.a.b")
	const n = 5
	for i := 0; i < n; i++ {
		code, body := post(t, u, "application/json", doc)
		if code != http.StatusOK || body != `{"record":0,"value":42}`+"\n" {
			t.Fatalf("post %d: status %d body %q", i, code, body)
		}
	}
	ic := getMetrics(t, ts.URL).IndexCache
	if ic.Misses != 1 || ic.Hits != n-1 {
		t.Fatalf("hits/misses = %d/%d, want %d/1", ic.Hits, ic.Misses, n-1)
	}
	if ic.BytesIndexed != int64(len(doc)) {
		t.Fatalf("BytesIndexed = %d, want %d", ic.BytesIndexed, len(doc))
	}
	if ic.HitRate == 0 {
		t.Fatal("hit rate should be positive")
	}
}
