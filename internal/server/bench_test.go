package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"jsonski/internal/gen"
	"jsonski/internal/telemetry"
)

// nullWriter is a ResponseWriter that discards the body, so benchmarks
// measure the handler's own allocations rather than a recorder's. It
// counts flushes: on a real connection each one is a chunked write and a
// client wake-up, a cost the discarded body would otherwise hide.
type nullWriter struct {
	h       http.Header
	code    int
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
func (w *nullWriter) WriteHeader(code int)        { w.code = code }
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

// hotDoc is a generated 256 KiB TT document, the size of the
// http-doc-hot ledger workload's documents, with the /query and /doc
// requests that workload sends it.
func hotDoc(tb testing.TB) []byte {
	tb.Helper()
	doc, err := gen.Generate("tt", 256<<10, 7)
	if err != nil {
		tb.Fatal(err)
	}
	return doc
}

var hotTargets = []struct{ name, target string }{
	{"query", "/query?path=" + url.QueryEscape("$[*].en.urls[*].url")},
	{"doc", "/doc?get=" + url.QueryEscape("[40].user.screen_name")},
}

// serveHot sends one single-document request for doc to s in process
// and returns its status (200 unless the handler set another).
func serveHot(s *Server, target string, doc []byte) int {
	req := httptest.NewRequest("POST", target, bytes.NewReader(doc))
	req.Header.Set("Content-Type", "application/json")
	w := nullWriter{code: http.StatusOK}
	s.ServeHTTP(&w, req)
	return w.code
}

func benchServer(b *testing.B) *Server {
	b.Helper()
	s := New(Config{Workers: 2, IndexCacheBytes: -1})
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

// streamBody is the NDJSON body of the streaming benchmarks: 64 small
// records.
func streamBody() []byte {
	var body bytes.Buffer
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&body, `{"id":%d,"name":"rec-%04d","pad":"%s"}`+"\n", i, i, strings.Repeat("y", 80))
	}
	return body.Bytes()
}

// BenchmarkServerQueryStream measures the NDJSON streaming path of
// /query and /multi: many small records per request, fanned across the
// worker pool, with the response flushes counted as flushes/op.
func BenchmarkServerQueryStream(b *testing.B) {
	stream := streamBody()
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

// BenchmarkServerTraced is BenchmarkServerQueryStream's /query request
// with tracing off, sampled at 0.1 and always on, so it times the
// daemon's own span path: one root span per request and runRecord's
// engine spans. No exporter drains the ring, so spans that overflow it
// are dropped and the benchmark times the request path alone.
func BenchmarkServerTraced(b *testing.B) {
	stream := streamBody()
	for _, mode := range []struct {
		name  string
		ratio float64
	}{{"off", 0}, {"sampled", 0.1}, {"always", 1}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := Config{Workers: 2, IndexCacheBytes: -1}
			if mode.ratio > 0 {
				cfg.Tracer = telemetry.NewTracer(telemetry.TracerConfig{SampleRatio: mode.ratio})
			}
			s := New(cfg)
			b.Cleanup(s.Close)
			b.ReportAllocs()
			b.SetBytes(int64(len(stream)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest("POST", "/query?path=$.name", bytes.NewReader(stream))
				s.ServeHTTP(&nullWriter{}, req)
			}
		})
	}
}

// BenchmarkServerDocHot measures the hot single-document path of the
// http-doc-hot workload in process: /query and /doc over a 256 KiB TT
// document whose structural index is cached after the first request,
// so the body read, content hash, cache lookup and evaluation are the
// whole cost. Its allocs/op hold the body read to a recycled buffer.
func BenchmarkServerDocHot(b *testing.B) {
	doc := hotDoc(b)
	for _, ht := range hotTargets {
		b.Run(ht.name, func(b *testing.B) {
			s := New(Config{Workers: 2})
			b.Cleanup(s.Close)
			if code := serveHot(s, ht.target, doc); code != http.StatusOK {
				b.Fatalf("warm-up: status %d", code)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(doc)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveHot(s, ht.target, doc)
			}
		})
	}
}
