// Package server is jsonskid's HTTP serving layer: streaming JSONPath
// evaluation over request bodies, backed by a compiled-query LRU cache
// (jsonski.Cache), a bounded record-parallel worker pool, and live
// metrics.
//
// Endpoints:
//
//	POST /query?path=$.a.b   evaluate one path; body is NDJSON (default)
//	                         or a single JSON record (Content-Type:
//	                         application/json); matches stream back as
//	                         NDJSON lines {"record":n,"value":...}.
//	                         With ?explain=1 the response ends with an
//	                         {"explain":...} trailer listing the
//	                         fast-forward movements (bounded event log).
//	POST /multi?path=..&path=..  evaluate several paths in one shared
//	                         pass per record (jsonski.QuerySet); lines
//	                         gain a "query" index field
//	GET/POST /doc?get=a.b[2] navigate the body (one JSON document) to a
//	                         single value with the on-demand lazy API —
//	                         no query compilation; the raw value span is
//	                         returned verbatim, 404 when the path does
//	                         not resolve. Indexed via the same index
//	                         cache as single-document /query.
//	GET  /metrics            live counters as JSON (see metricsSnapshot)
//	GET  /metrics/prom       the same counters plus latency histograms in
//	                         the Prometheus text exposition format
//	GET  /healthz            liveness probe (process is up)
//	GET  /readyz             readiness probe: 503 once shutdown has begun
//	                         or while the worker queue is saturated
//
// An NDJSON body is evaluated in batches: a batch is the complete
// records that one 64 KiB read of the body delivered (a record longer
// than that grows its batch until it ends). Batches are fanned out
// across the worker pool, and each batch's match lines are written back
// in input order with one flush. A client consuming a long stream sees
// matches while later batches are still being parsed, and a client
// that trickles records in gets each record's matches before it sends
// the next. A request holds at most 2×workers batches in its window,
// plus the two its reader is filling and handing over, so its in-flight
// input stays within (2×workers + 2) × 64 KiB; a record longer than
// 64 KiB adds its own length.
package server

import (
	"bytes"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"jsonski"
	"jsonski/internal/telemetry"
)

// Config tunes a Server. The zero value picks sensible defaults.
type Config struct {
	// Workers is the number of evaluation goroutines shared by all
	// requests. 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds accepted-but-unstarted evaluation tasks, shared
	// by all requests (backpressure). A task is one batch of NDJSON
	// records: what one 64 KiB read of a body delivered. 0 means
	// 4×Workers.
	QueueDepth int
	// CacheSize caps the compiled-query LRU cache. 0 means
	// jsonski.DefaultCacheSize.
	CacheSize int
	// MaxBodyBytes caps a single request body; an NDJSON stream that
	// exceeds it is cut off mid-request with an error, and either way
	// the connection closes. 0 means 1 GiB, negative means unlimited.
	MaxBodyBytes int64
	// IndexCacheBytes bounds the structural-index LRU used for
	// single-document requests: repeated queries over the same hot
	// document reuse its materialized word masks instead of
	// re-classifying the buffer. 0 means jsonski.DefaultIndexCacheBytes,
	// negative disables the cache.
	IndexCacheBytes int64
	// Logger receives structured access and error logs. nil disables
	// request logging entirely (the handlers never format log records).
	Logger *slog.Logger
	// SlowQuery, when positive, logs any request slower than this at
	// Warn level (requires Logger). With tracing enabled it doubles as
	// the always-sample override: a request that crosses the threshold
	// exports its trace even when head-based sampling said no.
	SlowQuery time.Duration
	// Tracer, when non-nil, enables distributed tracing: every /query
	// and /multi request gets a root span (continuing an inbound W3C
	// traceparent when present) with child spans for index lookup,
	// per-record engine runs, and sink flushes. nil disables tracing;
	// the request path then pays a single nil check.
	Tracer *telemetry.Tracer
	// Pprof mounts net/http/pprof under /debug/pprof/ when true.
	Pprof bool
}

// DefaultMaxBodyBytes is the request-body cap used when
// Config.MaxBodyBytes is 0.
const DefaultMaxBodyBytes = 1 << 30

// Server is the HTTP handler. Create with New, serve it with net/http,
// and Close it after the HTTP server has drained.
type Server struct {
	cfg    Config
	cache  *jsonski.Cache
	icache *jsonski.IndexCache // nil when disabled
	pool   *workerPool
	mux    *http.ServeMux
	m      metrics
	start  time.Time
	down   atomic.Bool // readiness: set once shutdown begins
	log    *slog.Logger
	tracer *telemetry.Tracer // nil when tracing is disabled
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	s := &Server{
		cfg:    cfg,
		cache:  jsonski.NewCache(cfg.CacheSize),
		pool:   newWorkerPool(cfg.Workers, cfg.QueueDepth),
		mux:    http.NewServeMux(),
		start:  time.Now(),
		log:    cfg.Logger,
		tracer: cfg.Tracer,
	}
	if cfg.IndexCacheBytes >= 0 {
		s.icache = jsonski.NewIndexCache(cfg.IndexCacheBytes)
	}
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /multi", s.handleMulti)
	s.mux.HandleFunc("GET /doc", s.handleDoc)
	s.mux.HandleFunc("POST /doc", s.handleDoc)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics/prom", s.handleProm)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	if cfg.Pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler: the mux wrapped with per-request
// timing, the root span of the request's trace, the access log, and the
// slow-query log.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	if s.cfg.MaxBodyBytes > 0 {
		// The cap wraps net/http's own writer, not sw: MaxBytesReader
		// reports a tripped limit through a method of that writer which
		// a wrapper hides, and only then does net/http close the
		// connection instead of reusing it after a body it never read.
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	evalPath := r.URL.Path == "/query" || r.URL.Path == "/multi" || r.URL.Path == "/doc"
	var dur time.Duration
	var slow bool
	var traceID telemetry.TraceID
	// serve runs the request under its root span sp (nil: untraced).
	serve := func(sp *telemetry.Span) {
		if sp != nil {
			// Inject before the handler commits the status line so
			// callers can stitch their client span to ours even on
			// error responses.
			w.Header().Set("traceparent", sp.Context().Traceparent())
			r = r.WithContext(telemetry.ContextWithSpan(r.Context(), sp))
			traceID = sp.Context().TraceID
		}
		s.mux.ServeHTTP(sw, r)
		dur = time.Since(t0)
		switch r.URL.Path {
		case "/query":
			s.m.queryLatency.Observe(dur)
		case "/multi":
			s.m.multiLatency.Observe(dur)
		case "/doc":
			s.m.docLatency.Observe(dur)
		}
		slow = s.cfg.SlowQuery > 0 && dur >= s.cfg.SlowQuery && evalPath
		if sp != nil {
			sp.SetString("http.method", r.Method)
			sp.SetString("http.route", r.URL.Path)
			sp.SetInt("http.status_code", int64(sw.status))
			sp.SetInt("jsonski.queue.capacity", int64(s.pool.queueCap()))
			if slow {
				// The always-sample override: slow requests export
				// their trace even when the head-based decision said no.
				sp.SetBool("jsonski.slow_query", true)
				sp.ForceSample()
			}
		}
	}
	if s.tracer != nil && evalPath {
		// Continue an inbound W3C context when one is present (the
		// parent's sampling decision wins); mint a fresh trace otherwise.
		parent, _ := telemetry.ParseTraceparent(
			r.Header.Get("traceparent"), r.Header.Get("tracestate"))
		s.tracer.Root(r.Method+" "+r.URL.Path, parent, serve)
	} else {
		serve(nil)
	}
	if s.log == nil {
		return
	}
	attrs := []any{
		"method", r.Method,
		"path", r.URL.Path,
		"query", r.URL.RawQuery,
		"status", sw.status,
		"duration", dur,
		"remote", r.RemoteAddr,
	}
	if traceID.IsValid() {
		attrs = append(attrs, "trace_id", traceID.String())
	}
	if slow {
		s.log.Warn("slow query", attrs...)
	} else {
		s.log.Info("request", attrs...)
	}
}

// statusWriter captures the response status for the access log. Unwrap
// lets http.NewResponseController reach the underlying writer's Flush
// and full-duplex controls, which the streaming handlers depend on.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// Cache exposes the compiled-query cache (shared with any embedding
// code that wants to pre-warm it).
func (s *Server) Cache() *jsonski.Cache { return s.cache }

// IndexCache exposes the structural-index cache, or nil when disabled.
func (s *Server) IndexCache() *jsonski.IndexCache { return s.icache }

// BeginShutdown flips /readyz to 503 so load balancers stop routing new
// work here. Call before http.Server.Shutdown; in-flight requests are
// unaffected.
func (s *Server) BeginShutdown() { s.down.Store(true) }

// Close drains and stops the worker pool. Call after
// http.Server.Shutdown has returned so no request can still submit work.
func (s *Server) Close() { s.pool.close() }

// write sends b to the client, accounting bytes out.
func (s *Server) write(w io.Writer, b []byte) {
	n, _ := w.Write(b)
	s.m.counts[bytesOut].Add(int64(n))
}

// requestBody is the one reader of a request body: r.Body, which
// ServeHTTP has put under the configured size bound, counted into
// io.bytes_in.
func (s *Server) requestBody(r *http.Request) io.Reader {
	return &countingReader{r: r.Body, n: &s.m.counts[bytesIn]}
}

// reject answers a request refused before its body was read. It reads
// the body out first, through requestBody so the size cap and
// io.bytes_in still apply: net/http drains at most 256 KiB after a
// handler returns and then closes the connection, so a client still
// uploading a larger body would get a broken pipe instead of the error.
func (s *Server) reject(w http.ResponseWriter, r *http.Request, status int, err error) {
	_, _ = io.Copy(io.Discard, s.requestBody(r))
	s.jsonError(w, status, err)
}

// firstBodyChunk caps the first allocation of a whole-body read, so a
// declared Content-Length costs at most this much before its bytes
// arrive. It is also the largest buffer bodyPool keeps.
const firstBodyChunk = 1 << 20

// bodyBuf is a whole-body buffer recycled through bodyPool: the pool
// holds the pointer, so a Put does not allocate.
type bodyBuf struct{ b []byte }

// bodyPool recycles the buffers of whole-body reads (single-document
// requests) across requests.
var bodyPool = sync.Pool{New: func() any { return new(bodyBuf) }}

// poisonBodies, set by the package's tests, overwrites each body as its
// buffer is put back and drops the buffer, so a read of a recycled body
// shows as wrong output on every run rather than as a rare race, and no
// later request refills the buffer with the same document.
var poisonBodies atomic.Bool

func putBodyBuf(bb *bodyBuf) {
	if poisonBodies.Load() {
		for i := range bb.b {
			bb.b[i] = '#'
		}
		return
	}
	// A buffer grown past the first chunk by one large body is dropped
	// rather than pinned in the pool.
	if cap(bb.b) <= firstBodyChunk+1 {
		bb.b = bb.b[:0]
		bodyPool.Put(bb)
	}
}

// fill reads body to EOF into bb. The buffer is sized from the declared
// length (negative: unknown): min(declared, firstBodyChunk)+1 bytes,
// the extra byte letting the read see EOF without growing. Past that it
// doubles as bytes arrive, never beyond declared+1, so a client makes
// the daemon allocate at most firstBodyChunk before it sends anything
// and about twice what it has sent after that. A body of unknown length
// starts from the buffer's own capacity, or 512 bytes, and doubles.
func (bb *bodyBuf) fill(body io.Reader, declared int64) error {
	b := bb.b[:0]
	want := 512
	if declared >= 0 {
		want = int(min(declared, firstBodyChunk)) + 1
	}
	if cap(b) < want {
		b = make([]byte, 0, want)
	}
	for {
		if len(b) == cap(b) {
			size := 2 * int64(cap(b))
			if limit := declared + 1; limit > int64(cap(b)) && limit < size {
				size = limit
			}
			b = append(make([]byte, 0, size), b...)
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			bb.b = b
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// readBody is the one whole-body reader: it reads r's body (through
// requestBody) into a pooled buffer that the caller puts back with
// putBodyBuf once nothing refers to its bytes. On a read error it sends
// the error response and returns nil.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) *bodyBuf {
	bb := bodyPool.Get().(*bodyBuf)
	if err := bb.fill(s.requestBody(r), r.ContentLength); err != nil {
		putBodyBuf(bb)
		s.jsonError(w, requestStatus(err), err)
		return nil
	}
	return bb
}

// readDocument reads a single-document body whole (readBody) and
// returns it trimmed, with the buffer holding it; on a read error or an
// empty document it sends the error response and returns a nil buffer.
func (s *Server) readDocument(w http.ResponseWriter, r *http.Request) (*bodyBuf, []byte) {
	bb := s.readBody(w, r)
	if bb == nil {
		return nil, nil
	}
	data := bytes.TrimSpace(bb.b)
	if len(data) == 0 {
		putBodyBuf(bb)
		s.jsonError(w, http.StatusBadRequest, errors.New("empty body"))
		return nil, nil
	}
	return bb, data
}

// countingReader tallies bytes drawn from a request body.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}
