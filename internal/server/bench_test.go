package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// nullWriter is a ResponseWriter that discards the body, so benchmarks
// measure the handler's own allocations rather than a recorder's. It
// counts flushes: on a real connection each one is a chunked write and a
// client wake-up, a cost the discarded body would otherwise hide.
type nullWriter struct {
	h       http.Header
	n       int64
	flushes int
}

func (w *nullWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header)
	}
	return w.h
}
func (w *nullWriter) Write(b []byte) (int, error) { w.n += int64(len(b)); return len(b), nil }
func (w *nullWriter) WriteHeader(int)             {}
func (w *nullWriter) Flush()                      { w.flushes++ }

// benchDoc is a single document with a handful of matches for
// $.items[*].name plus bulk the query fast-forwards over.
func benchDoc() []byte {
	var b bytes.Buffer
	b.WriteString(`{"meta":{"version":3,"flags":[1,2,3,4,5,6,7,8]},"items":[`)
	for i := 0; i < 32; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id":%d,"name":"item-%04d","payload":"%s","tags":["a","b","c"]}`,
			i, i, strings.Repeat("x", 120))
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

func benchServer(b *testing.B) *Server {
	b.Helper()
	s, err := New(Config{Workers: 2, IndexCacheBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

// BenchmarkServerQuerySingleDoc measures the /query hot path for a
// single-document body: one request, matches rendered as NDJSON lines.
func BenchmarkServerQuerySingleDoc(b *testing.B) {
	s := benchServer(b)
	doc := benchDoc()
	b.ReportAllocs()
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/query?path=$.items[*].name", bytes.NewReader(doc))
		req.Header.Set("Content-Type", "application/json")
		var w nullWriter
		s.ServeHTTP(&w, req)
	}
}

// BenchmarkServerQueryStream measures the NDJSON streaming path of
// /query and /multi: many small records per request, fanned across the
// worker pool, with the response flushes counted as flushes/op.
func BenchmarkServerQueryStream(b *testing.B) {
	var body bytes.Buffer
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&body, `{"id":%d,"name":"rec-%04d","pad":"%s"}`+"\n", i, i, strings.Repeat("y", 80))
	}
	stream := body.Bytes()
	for _, bm := range []struct{ name, target string }{
		{"query", "/query?path=$.name"},
		{"multi", "/multi?path=$.name&path=$.id"},
	} {
		b.Run(bm.name, func(b *testing.B) {
			s := benchServer(b)
			flushes := 0
			b.ReportAllocs()
			b.SetBytes(int64(len(stream)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest("POST", bm.target, bytes.NewReader(stream))
				var w nullWriter
				s.ServeHTTP(&w, req)
				flushes += w.flushes
			}
			b.ReportMetric(float64(flushes)/float64(b.N), "flushes/op")
		})
	}
}
