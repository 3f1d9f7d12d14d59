package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"mime"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"jsonski"
	"jsonski/internal/ndjson"
	"jsonski/internal/telemetry"
)

// Explain-mode event caps: a single record's trace is bounded at
// perRecordExplainEvents, and the whole response trailer at
// maxExplainEvents — adversarial inputs (one skip per byte) cost a
// bounded amount of memory per request no matter the body size.
const (
	perRecordExplainEvents = 512
	maxExplainEvents       = 4096
)

// linePool recycles the output buffers of single-document evaluations
// that render their matches before writing them (explain runs, /multi
// and /doc).
var linePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getLineBuf() *bytes.Buffer {
	buf := linePool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

func putLineBuf(buf *bytes.Buffer) {
	// Oversized one-off buffers (a record with huge matches) are dropped
	// rather than pinned in the pool.
	if buf.Cap() <= 1<<20 {
		linePool.Put(buf)
	}
}

// NDJSON line framing for /query output: every match is wrapped as
// {"record":N,"value":<match>}. recordPrefix renders the opening frame
// for record idx; singlePrefix is the constant frame of single-document
// requests.
var (
	singlePrefix = recordPrefix(0)
	lineSuffix   = []byte("}\n")
)

func recordPrefix(idx int) []byte {
	b := make([]byte, 0, 24)
	b = append(b, `{"record":`...)
	b = strconv.AppendInt(b, int64(idx), 10)
	return append(b, `,"value":`...)
}

// recordEval evaluates record idx and appends its NDJSON match lines to
// out. In explain mode it returns the record's fast-forward trace; nil
// otherwise. It runs on pool workers, concurrently with other batches.
type recordEval func(out *bytes.Buffer, rec []byte, idx int) (*jsonski.Trace, error)

// evaluator bundles a record evaluation with its indexed twin. eval
// handles NDJSON stream records (each line is seen once; indexing it
// would be pure overhead); evalIndexed handles single-document
// requests through the structural-index cache, so repeated queries
// over a hot document reuse its word masks. single, when set, replaces
// both for non-explain single-document requests: it streams match
// lines straight from the record buffer into the response writer
// through a zero-copy StreamSink instead of rendering into an
// intermediate buffer (ix is nil when the index cache is off). In
// explain mode (explain set) eval records a fast-forward trace and the
// other paths are unused: explain runs bypass the index cache so the
// trace reflects exactly the movements of this evaluation.
type evaluator struct {
	eval        recordEval
	evalIndexed func(out *bytes.Buffer, ix *jsonski.Index) error
	single      func(w io.Writer, data []byte, ix *jsonski.Index) error
	explain     bool
}

// explainRequested reports whether the request opted into explain mode.
func explainRequested(r *http.Request) bool {
	switch r.URL.Query().Get("explain") {
	case "1", "true", "yes":
		return true
	}
	return false
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.m.counts[queryRequests].Add(1)
	path := r.URL.Query().Get("path")
	if path == "" {
		s.reject(w, r, http.StatusBadRequest, errors.New("missing ?path= query parameter"))
		return
	}
	q, err := s.cache.Query(path)
	if err != nil {
		s.reject(w, r, http.StatusBadRequest, err)
		return
	}
	// The request's root span (nil unless tracing is on and the request
	// was sampled or force-collected); eval closures hang per-record
	// engine spans off it from pool workers, which Child permits.
	rsp := telemetry.SpanFromContext(r.Context())
	explain := explainRequested(r)
	s.serve(w, r, evaluator{
		explain: explain,
		eval: func(out *bytes.Buffer, rec []byte, idx int) (*jsonski.Trace, error) {
			sink := &jsonski.StreamSink{W: out, Prefix: recordPrefix(idx), Suffix: lineSuffix}
			st, err := s.runRecord(rsp, idx, func(sp *telemetry.Span) (jsonski.Stats, error) {
				// Explain requests trace every record for the trailer; a
				// sampled span gets its movement log as span events.
				// Same engine, same output either way.
				switch {
				case explain:
					return q.RunSinkExplain(rec, sink, perRecordExplainEvents)
				case sp.Recording():
					return q.RunSinkExplain(rec, sink, spanTraceEvents)
				}
				return q.RunSink(rec, sink)
			})
			if !explain {
				return nil, err
			}
			return st.Trace(), err
		},
		single: func(w io.Writer, data []byte, ix *jsonski.Index) error {
			sink := &jsonski.StreamSink{W: w, Prefix: singlePrefix, Suffix: lineSuffix}
			_, err := s.runRecord(rsp, 0, func(sp *telemetry.Span) (jsonski.Stats, error) {
				sp.SetBool("jsonski.indexed", ix != nil)
				switch {
				case ix != nil && sp.Recording():
					return q.RunIndexedSinkExplain(ix, sink, spanTraceEvents)
				case ix != nil:
					return q.RunIndexedSink(ix, sink)
				case sp.Recording():
					return q.RunSinkExplain(data, sink, spanTraceEvents)
				}
				return q.RunSink(data, sink)
			})
			return err
		},
	})
}

func (s *Server) handleMulti(w http.ResponseWriter, r *http.Request) {
	s.m.counts[multiRequests].Add(1)
	paths := r.URL.Query()["path"]
	if len(paths) == 0 {
		s.reject(w, r, http.StatusBadRequest, errors.New("missing ?path= query parameters"))
		return
	}
	if explainRequested(r) {
		// A set's shared pass moves once for all of its members, and a
		// set past one state set's 63 states takes one pass per group;
		// per-query attribution would be misleading, so explain is a
		// /query-only feature.
		s.reject(w, r, http.StatusBadRequest, errors.New("explain is not supported on /multi; use /query"))
		return
	}
	qs, err := s.cache.QuerySet(paths...)
	if err != nil {
		s.reject(w, r, http.StatusBadRequest, err)
		return
	}
	rsp := telemetry.SpanFromContext(r.Context())
	s.serve(w, r, evaluator{
		eval: func(out *bytes.Buffer, rec []byte, idx int) (*jsonski.Trace, error) {
			_, err := s.runRecord(rsp, idx, func(*telemetry.Span) (jsonski.Stats, error) {
				return qs.Run(rec, multiLine(out, idx))
			})
			return nil, err
		},
		evalIndexed: func(out *bytes.Buffer, ix *jsonski.Index) error {
			_, err := s.runRecord(rsp, 0, func(sp *telemetry.Span) (jsonski.Stats, error) {
				sp.SetBool("jsonski.indexed", true)
				return qs.RunIndexed(ix, multiLine(out, 0))
			})
			return err
		},
	})
}

// multiLine renders each /multi match as an NDJSON line into buf.
func multiLine(buf *bytes.Buffer, idx int) func(jsonski.SetMatch) {
	return func(m jsonski.SetMatch) {
		buf.WriteString(`{"record":`)
		buf.WriteString(strconv.Itoa(idx))
		buf.WriteString(`,"query":`)
		buf.WriteString(strconv.Itoa(m.Query))
		buf.WriteString(`,"value":`)
		buf.Write(m.Value)
		buf.WriteString("}\n")
	}
}

// serve wires a request body into the evaluator: a single JSON record
// when the Content-Type says application/json, an NDJSON record stream
// otherwise.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, ev evaluator) {
	s.m.counts[inFlight].Add(1)
	defer s.m.counts[inFlight].Add(-1)
	if ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); ct == "application/json" {
		s.serveSingle(w, r, ev)
		return
	}
	s.streamRecords(w, r, s.requestBody(w, r), ev)
}

// explainEvent is one trailer event: a public trace event tagged with
// the record it came from.
type explainEvent struct {
	Record int `json:"record"`
	jsonski.TraceEvent
}

// explainTrail accumulates the bounded explain trailer of a response.
type explainTrail struct {
	events  []explainEvent
	dropped int
}

// add folds one record's trace in, enforcing the global event cap.
func (t *explainTrail) add(idx int, tr *jsonski.Trace) {
	if tr == nil {
		return
	}
	t.dropped += tr.Dropped
	for _, e := range tr.Events {
		if len(t.events) >= maxExplainEvents {
			t.dropped++
			continue
		}
		t.events = append(t.events, explainEvent{Record: idx, TraceEvent: e})
	}
}

// line renders the trailer as one NDJSON line. Truncation is never
// silent: dropped_events carries the count of movements that fell past
// the per-record and whole-response caps ("dropped" is the same value
// under the trailer's original field name, kept for existing parsers).
func (t *explainTrail) line() []byte {
	var out struct {
		Explain struct {
			Events        []explainEvent `json:"events"`
			Dropped       int            `json:"dropped"`
			DroppedEvents int            `json:"dropped_events"`
		} `json:"explain"`
	}
	out.Explain.Events = t.events
	if out.Explain.Events == nil {
		out.Explain.Events = []explainEvent{}
	}
	out.Explain.Dropped = t.dropped
	out.Explain.DroppedEvents = t.dropped
	b, _ := json.Marshal(out)
	return append(b, '\n')
}

// serveSingle evaluates the whole body as one record. With the index
// cache enabled it runs through a cached structural index, so repeated
// posts of the same document hit the cached masks. The body's pooled
// buffer goes back when serveSingle returns: no slice of it outlives
// the handler, since matches are rendered or flushed before then and
// the index tiers keep their own copies of what they cache.
func (s *Server) serveSingle(w http.ResponseWriter, r *http.Request, ev evaluator) {
	bb, data := s.readDocument(w, r)
	if bb == nil {
		return
	}
	defer putBodyBuf(bb)
	if ev.single != nil && !ev.explain {
		s.serveSingleStreaming(w, r, data, ev)
		return
	}
	buf := getLineBuf()
	defer putLineBuf(buf)
	var (
		trace *jsonski.Trace
		err   error
	)
	if !ev.explain && ev.evalIndexed != nil {
		if ix := s.lookupIndex(telemetry.SpanFromContext(r.Context()), data); ix != nil {
			err = ev.evalIndexed(buf, ix)
			ix.Release()
		} else {
			trace, err = ev.eval(buf, data, 0)
		}
	} else {
		// Explain runs bypass the index tiers: the trace should describe
		// this evaluation's movements, not a cached index's.
		trace, err = ev.eval(buf, data, 0)
	}
	if err != nil {
		s.m.counts[recordErrors].Add(1)
		s.jsonError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	s.write(w, buf.Bytes())
	if ev.explain {
		var trail explainTrail
		trail.add(0, trace)
		s.write(w, trail.line())
	}
}

// lookupIndex resolves a single-document body to a structural index
// (findIndex) under an index.lookup span tagged with the serving tier,
// so a trace tells mask reuse from a rebuild. It returns nil when both
// tiers are off; else the caller owns one reference.
func (s *Server) lookupIndex(rsp *telemetry.Span, data []byte) *jsonski.Index {
	var hit indexHit
	rsp.Child("index.lookup", func(sp *telemetry.Span) {
		sp.SetInt("jsonski.document.bytes", int64(len(data)))
		hit = s.findIndex(data)
		if hit.tier != "" {
			sp.SetString("jsonski.index.tier", hit.tier)
		}
	})
	return hit.ix
}

// indexHit is the index found (nil on a miss) and the tier serving it.
type indexHit struct {
	ix   *jsonski.Index
	tier string
}

// findIndex looks data up in the persistent catalog (a hit is a mapped
// sidecar: masks shared page-cache-wide, no rebuild even across daemon
// restarts), then in the in-memory index cache (builds on a miss).
func (s *Server) findIndex(data []byte) indexHit {
	if s.catalog != nil {
		if ix, _ := s.catalog.Get(data); ix != nil {
			return indexHit{ix, "catalog"}
		}
	}
	if s.icache != nil {
		if ix := s.icache.Get(data); ix != nil {
			return indexHit{ix, "cache"}
		}
		return indexHit{}
	}
	return indexHit{tier: "none"}
}

// responseBufPool recycles the output buffers of the streaming
// single-document path.
var responseBufPool = sync.Pool{
	New: func() any { return bufio.NewWriterSize(nil, 16<<10) },
}

// hideFlush exposes only Write, so the StreamSink's end-of-run Flush
// cannot push buffered output to the wire before serveSingleStreaming
// has decided between success and a full-status error.
type hideFlush struct{ io.Writer }

// countingWriter tallies bytes that actually reach the response.
type countingWriter struct {
	w io.Writer
	n *atomic.Int64
	// sent is the bytes forwarded on this response; once nonzero the
	// status line is committed and errors must become NDJSON lines.
	sent int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.sent += int64(n)
	c.n.Add(int64(n))
	return n, err
}

// serveSingleStreaming evaluates the whole body as one record with
// match lines streamed straight from the record buffer to the response
// (no intermediate rendering of the result set). Output is buffered
// 16KB at a time: an evaluation error before anything reached the wire
// still gets a full-status 400 with the partial output discarded;
// after that the error becomes a trailing NDJSON line, as on the
// record-stream path.
func (s *Server) serveSingleStreaming(w http.ResponseWriter, r *http.Request, data []byte, ev evaluator) {
	rsp := telemetry.SpanFromContext(r.Context())
	ix := s.lookupIndex(rsp, data)
	if ix != nil {
		defer ix.Release()
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	cw := &countingWriter{w: w, n: &s.m.counts[bytesOut]}
	bw := responseBufPool.Get().(*bufio.Writer)
	bw.Reset(cw)
	defer func() {
		bw.Reset(nil)
		responseBufPool.Put(bw)
	}()
	if err := ev.single(hideFlush{bw}, data, ix); err != nil {
		s.m.counts[recordErrors].Add(1)
		if cw.sent == 0 {
			s.jsonError(w, http.StatusBadRequest, err)
			return
		}
		s.flushSink(rsp, bw)
		s.writeErrorLine(w, 0, err)
		return
	}
	s.flushSink(rsp, bw)
}

// batch is one pool task of the NDJSON stream path: the complete records
// that one read of the request body delivered. A worker evaluates them
// in order into out; the handler then writes out and flushes once for
// the whole batch.
type batch struct {
	ndjson.Batch
	out    bytes.Buffer     // match and error lines, in record order
	errs   int64            // records whose evaluation failed
	traces []*jsonski.Trace // per record; non-nil only in explain mode
	done   chan struct{}    // receives once the worker has run the batch
}

// batchPool recycles batches — read buffer, record table and output
// buffer — across requests.
var batchPool = sync.Pool{New: func() any {
	return &batch{Batch: ndjson.Batch{Data: make([]byte, 0, ndjson.ReadSize)}, done: make(chan struct{}, 1)}
}}

func getBatch() *batch { return batchPool.Get().(*batch) }

func putBatch(b *batch) {
	// A batch grown by an over-long record, or whose output grew past
	// 1 MiB, is dropped rather than pinned in the pool.
	if cap(b.Data) > ndjson.ReadSize || b.out.Cap() > 1<<20 {
		return
	}
	b.out.Reset()
	b.errs = 0
	clear(b.traces)
	b.traces = b.traces[:0]
	batchPool.Put(b)
}

// run evaluates the batch's records in order into b.out. A failed
// record's {"record":n,"error":...} line replaces whatever match lines
// it had rendered, and evaluation goes on with the next record.
func (b *batch) run(eval recordEval) {
	for i, rec := range b.Recs {
		idx := b.First + i
		mark := b.out.Len()
		trace, err := eval(&b.out, rec, idx)
		b.traces = append(b.traces, trace)
		if err != nil {
			b.out.Truncate(mark)
			b.out.Write(errorLine(idx, err))
			b.errs++
		}
	}
	b.done <- struct{}{}
}

// readBatches frames an NDJSON body into batches (see ndjson.Reader) and
// sends them on out in stream order, closing out when it returns. It
// returns the read error (nil at EOF), or ctx's error if the handler
// stopped taking batches.
func readBatches(ctx context.Context, body io.Reader, out chan<- *batch) error {
	defer close(out)
	rd := ndjson.NewReader(body)
	for {
		b := getBatch()
		if err := rd.Next(&b.Batch); err != nil {
			putBatch(b)
			if err == io.EOF {
				return nil
			}
			return err
		}
		select {
		case out <- b:
		case <-ctx.Done():
			putBatch(b)
			return ctx.Err()
		}
	}
}

// streamRecords pipelines an NDJSON body through the worker pool one
// batch at a time, with a sliding window of in-flight batches: up to
// `depth` batches are being evaluated while earlier ones are written
// back in input order, one write and one flush per batch. So the client
// sees matches for batch n while batch n+k is still parsing — including
// clients that trickle records in over a held-open connection, whose
// every record is a batch of its own. The window, together with the
// pool's bounded queue, is the request's backpressure: reading from the
// body pauses whenever the window is full. So a request's in-flight
// input is the window's batches plus the one the reader is filling or
// handing over and the partial record it carries, each at most
// ndjson.ReadSize unless it holds a longer record.
//
// NDJSON records are independent, so a malformed record does not abort
// the stream: it becomes a {"record":n,"error":...} line (counted in
// /metrics) and evaluation continues with the next record.
func (s *Server) streamRecords(w http.ResponseWriter, r *http.Request, body io.Reader, ev evaluator) {
	ctx := r.Context()
	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	// HTTP/1 servers assume a handler stops reading the body once it
	// writes the response; we interleave the two by design (matches for
	// batch n stream back while batch n+k is still uploading), which
	// needs full-duplex mode. HTTP/2 is always full duplex; ignore the
	// not-supported error there.
	_ = rc.EnableFullDuplex()
	depth := 2 * s.cfg.Workers

	// The body is read by its own goroutine so the handler can hand a
	// finished batch to the client while the next is still in flight on
	// the wire. The goroutine owns r.Body until it sees EOF, a read
	// error, or ctx done — the handler joins on readDone before
	// returning, so the body is never touched after ServeHTTP exits.
	batches := make(chan *batch)
	readDone := make(chan error, 1)
	go func() { readDone <- readBatches(ctx, body, batches) }()

	window := make([]*batch, 0, depth)
	wroteAny := false
	batchesOpen := true
	var (
		trail     explainTrail
		submitErr error
	)
	flush := func() { _ = rc.Flush() }
	writeBatch := func(b *batch) {
		defer putBatch(b)
		if ev.explain {
			for i, trace := range b.traces {
				trail.add(b.First+i, trace)
			}
		}
		s.m.counts[recordErrors].Add(b.errs)
		s.m.counts[requestErrors].Add(b.errs)
		if b.out.Len() > 0 {
			s.write(w, b.out.Bytes())
			wroteAny = true
			flush()
		}
	}

loop:
	for batchesOpen || len(window) > 0 {
		var ready chan struct{}
		if len(window) > 0 {
			ready = window[0].done
		}
		var in chan *batch
		if batchesOpen && len(window) < depth {
			in = batches
		}
		select {
		case b, ok := <-in:
			if !ok {
				batchesOpen = false
				continue
			}
			if submitErr = s.pool.submit(ctx, func() { b.run(ev.eval) }); submitErr != nil {
				putBatch(b)
				break loop
			}
			window = append(window, b)
		case <-ready:
			b := window[0]
			window = window[1:]
			writeBatch(b)
		case <-ctx.Done():
			break loop
		}
	}
	// Every submitted batch runs, even on a closing pool; write the ones
	// still in flight in order unless the client is gone.
	for _, b := range window {
		<-b.done
		if ctx.Err() == nil {
			writeBatch(b)
		} else {
			putBatch(b)
		}
	}
	if errors.Is(submitErr, errPoolClosed) {
		// Close ran under a live stream (a shutdown that outlasted its
		// drain timeout). End with the error, not with a clean EOF that
		// would pass for a complete answer, and flush it before draining
		// the body so a client trickling records sees it now.
		s.streamError(w, wroteAny, http.StatusServiceUnavailable, submitErr)
		flush()
	}
	// On an early break the reader may be blocked handing us a batch;
	// keep receiving (and dropping) so it can run to EOF or error, then
	// join it.
	for batchesOpen {
		if b, ok := <-batches; ok {
			putBatch(b)
		} else {
			batchesOpen = false
		}
	}
	readErr := <-readDone
	switch {
	case errors.Is(submitErr, errPoolClosed):
		// Already reported.
	case readErr != nil && ctx.Err() != nil:
		s.m.counts[cancelledReads].Add(1)
	case readErr != nil:
		s.streamError(w, wroteAny, requestStatus(readErr), readErr)
		flush()
	case ev.explain && ctx.Err() == nil:
		// The explain trailer is the stream's last line, present even
		// when no record produced a match.
		s.write(w, trail.line())
		flush()
	case !wroteAny:
		// No record produced a match: still a success, still NDJSON —
		// just an empty stream.
		w.WriteHeader(http.StatusOK)
	}
}

// requestStatus is the status code of a body-read failure.
func requestStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// streamError ends an NDJSON stream on an error not tied to one record:
// a full-status error response while nothing has been written, else a
// trailing {"error":...} line, the status line being long gone.
func (s *Server) streamError(w http.ResponseWriter, wroteAny bool, status int, err error) {
	if !wroteAny {
		s.jsonError(w, status, err)
		return
	}
	s.writeErrorLine(w, -1, err)
}

// jsonError sends a {"error": ...} response with the given status.
func (s *Server) jsonError(w http.ResponseWriter, status int, err error) {
	s.m.counts[requestErrors].Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(status)
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{err.Error()})
	s.write(w, append(b, '\n'))
}

// writeErrorLine appends an NDJSON error line to an already-started
// stream. record is -1 when the error is not tied to one record.
func (s *Server) writeErrorLine(w http.ResponseWriter, record int, err error) {
	s.m.counts[requestErrors].Add(1)
	s.write(w, errorLine(record, err))
}

// errorLine renders an NDJSON error line; record is -1 when the error is
// not tied to one record.
func errorLine(record int, err error) []byte {
	var line struct {
		Record *int   `json:"record,omitempty"`
		Error  string `json:"error"`
	}
	if record >= 0 {
		line.Record = &record
	}
	line.Error = err.Error()
	b, _ := json.Marshal(line)
	return append(b, '\n')
}
