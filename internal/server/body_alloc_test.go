//go:build !race

// The race detector makes sync.Pool drop items at random, so pooled
// body buffers allocate again and allocation figures mean nothing.

package server

import (
	"net/http"
	"runtime"
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
			s, err := New(Config{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
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
