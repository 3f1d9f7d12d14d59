//go:build !race

// The race detector makes sync.Pool drop items at random, so pooled
// body buffers allocate again and allocation figures mean nothing.

package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestSingleDocumentHitAllocatesNoBody pins the hot single-document
// path's allocations: once a warm-up request has cached the document's
// index and left a body buffer in the pool, /query and /doc requests
// over a 256 KiB document allocate a small fraction of the body each,
// where a body read that grows a fresh buffer allocates several times
// the body.
func TestSingleDocumentHitAllocatesNoBody(t *testing.T) {
	doc := hotDoc(t)
	for _, ht := range hotTargets {
		t.Run(ht.name, func(t *testing.T) {
			s := New(Config{Workers: 2})
			defer s.Close()
			if code := serveHot(s, ht.target, doc); code != http.StatusOK {
				t.Fatalf("warm-up: status %d", code)
			}
			const n = 32
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				if code := serveHot(s, ht.target, doc); code != http.StatusOK {
					t.Fatalf("request %d: status %d", i, code)
				}
			}
			runtime.ReadMemStats(&after)
			per := (after.TotalAlloc - before.TotalAlloc) / n
			t.Logf("%d bytes allocated per request over a %d-byte document", per, len(doc))
			if per >= 64<<10 {
				t.Errorf("%d bytes allocated per request, want under %d", per, 64<<10)
			}
			if st := s.IndexCache().Stats(); st.Hits != n {
				t.Errorf("index cache hits = %d, want %d", st.Hits, n)
			}
		})
	}
}

// TestMultiAllocatesPerRecordNotPerMatch: /multi frames a match line
// without allocating, whatever its record's index, so eight matches a
// record cost no more allocations than one. Formatting the record
// number with strconv.Itoa cost one allocation per match from record
// 100 on.
func TestMultiAllocatesPerRecordNotPerMatch(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	allocs := func(matches int) float64 {
		var body bytes.Buffer
		for i := 0; i < 200; i++ {
			fmt.Fprintf(&body, "{\"a\": [%s]}\n", strings.TrimSuffix(strings.Repeat("1,", matches), ","))
		}
		return testing.AllocsPerRun(10, func() {
			req := httptest.NewRequest("POST", "/multi?path=$.a[*]", bytes.NewReader(body.Bytes()))
			s.ServeHTTP(httptest.NewRecorder(), req)
		})
	}
	// 700 more matches from record 100 on; output buffers grow a few
	// more times for the longer response.
	one, eight := allocs(1), allocs(8)
	t.Logf("200 records: %.0f allocs with one match each, %.0f with eight", one, eight)
	if eight > one+50 {
		t.Errorf("%.0f allocs with eight matches a record, %.0f with one: want no allocation per match", eight, one)
	}
}
