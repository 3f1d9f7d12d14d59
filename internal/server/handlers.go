package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
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

// linePool recycles the output buffers of /doc lookups.
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
// {"record":N,"value":<match>}.
var (
	firstPrefix = []byte(`{"record":0,"value":`)
	lineSuffix  = []byte("}\n")
)

// recordPrefix renders the opening frame for record idx. Record 0's,
// the frame of every single-document response, is a constant.
func recordPrefix(idx int) []byte {
	if idx == 0 {
		return firstPrefix
	}
	b := make([]byte, 0, 24)
	b = append(b, `{"record":`...)
	b = strconv.AppendInt(b, int64(idx), 10)
	return append(b, `,"value":`...)
}

// lineWriter receives a record's NDJSON match lines: a batch's output
// buffer, or a single document's buffered response writer. WriteString
// and WriteByte let the /multi framing write its constant parts and its
// numbers without allocating.
type lineWriter interface {
	io.Writer
	io.StringWriter
	io.ByteWriter
}

// recordEval evaluates record idx and writes its NDJSON match lines to
// out. ix is a structural index of rec when a single document found one
// in the index cache, nil otherwise: an NDJSON record is seen once, so
// indexing it would be pure overhead. In explain mode it returns the
// record's fast-forward trace; nil otherwise. NDJSON records run on
// pool workers, concurrently with other batches.
type recordEval func(out lineWriter, rec []byte, idx int, ix *jsonski.Index) (*jsonski.Trace, error)

// evaluator is an endpoint's record evaluation. In explain mode
// (explain set) eval records a fast-forward trace, and single documents
// bypass the index cache so the trace reflects exactly the movements of
// this evaluation.
type evaluator struct {
	eval    recordEval
	explain bool
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
		eval: func(out lineWriter, rec []byte, idx int, ix *jsonski.Index) (*jsonski.Trace, error) {
			sink := &jsonski.StreamSink{W: out, Prefix: recordPrefix(idx), Suffix: lineSuffix}
			st, err := s.runRecord(rsp, idx, func(sp *telemetry.Span) (jsonski.Stats, error) {
				sp.SetBool("jsonski.indexed", ix != nil)
				// Explain requests trace every record for the trailer,
				// and runRecord lifts that trace onto the span; sampling
				// picks no engine.
				switch {
				case explain:
					return q.RunSinkExplain(rec, sink, perRecordExplainEvents)
				case ix != nil:
					return q.RunIndexedSink(ix, sink)
				}
				return q.RunSink(rec, sink)
			})
			if !explain {
				return nil, err
			}
			return st.Trace(), err
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
		eval: func(out lineWriter, rec []byte, idx int, ix *jsonski.Index) (*jsonski.Trace, error) {
			_, err := s.runRecord(rsp, idx, func(sp *telemetry.Span) (jsonski.Stats, error) {
				sp.SetBool("jsonski.indexed", ix != nil)
				if ix != nil {
					return qs.RunIndexed(ix, multiLine(out, idx))
				}
				return qs.Run(rec, multiLine(out, idx))
			})
			return nil, err
		},
	})
}

// multiLine renders each /multi match as an NDJSON line into w.
func multiLine(w lineWriter, idx int) func(jsonski.SetMatch) {
	return func(m jsonski.SetMatch) {
		w.WriteString(`{"record":`)
		writeInt(w, idx)
		w.WriteString(`,"query":`)
		writeInt(w, m.Query)
		w.WriteString(`,"value":`)
		w.Write(m.Value)
		w.WriteString("}\n")
	}
}

// writeInt writes n in decimal a byte at a time: digits handed to Write
// would escape through the interface, costing an allocation per match.
func writeInt(w io.ByteWriter, n int) {
	var b [20]byte
	for _, c := range strconv.AppendInt(b[:0], int64(n), 10) {
		w.WriteByte(c)
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
	s.streamRecords(w, r, s.requestBody(r), ev)
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

// serveSingle evaluates the whole body as one record, with match lines
// streamed straight from the record buffer to the response (no
// intermediate rendering of the result set). With the index cache
// enabled it runs over a cached structural index, so repeated posts of
// the same document hit the cached masks; explain runs bypass the cache,
// so the trace describes this evaluation's movements, not a cached
// index's. Output is buffered 16KB at a time: an evaluation error before
// anything reached the wire still gets a full-status 400 with the
// partial output discarded; after that the error becomes a trailing
// NDJSON line, as on the record-stream path. The body's pooled buffer
// goes back when serveSingle returns: no slice of it outlives the
// handler, since matches are flushed before then and the index cache
// keeps its own copy of what it caches.
func (s *Server) serveSingle(w http.ResponseWriter, r *http.Request, ev evaluator) {
	bb, data := s.readDocument(w, r)
	if bb == nil {
		return
	}
	defer putBodyBuf(bb)
	rsp := telemetry.SpanFromContext(r.Context())
	var ix *jsonski.Index
	if !ev.explain {
		if ix = s.lookupIndex(rsp, data); ix != nil {
			defer ix.Release()
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	cw := &countingWriter{w: w, n: &s.m.counts[bytesOut]}
	bw := responseBufPool.Get().(*bufio.Writer)
	bw.Reset(cw)
	defer func() {
		bw.Reset(nil)
		responseBufPool.Put(bw)
	}()
	trace, err := ev.eval(hideFlush{bw}, data, 0, ix)
	if err != nil {
		s.m.counts[recordErrors].Add(1)
		if cw.sent == 0 {
			s.jsonError(w, http.StatusBadRequest, err)
			return
		}
		s.flushSink(rsp, bw)
		s.writeErrorLine(w, 0, err)
		return
	}
	if ev.explain {
		var trail explainTrail
		trail.add(0, trace)
		bw.Write(trail.line())
	}
	s.flushSink(rsp, bw)
}

// lookupIndex resolves a single-document body to a structural index
// (findIndex) under an index.lookup span tagged with the serving tier,
// so a trace tells a cached index from no index. It returns nil when the
// index cache is off; else the caller owns one reference.
func (s *Server) lookupIndex(rsp *telemetry.Span, data []byte) *jsonski.Index {
	var hit indexHit
	rsp.Child("index.lookup", func(sp *telemetry.Span) {
		sp.SetInt("jsonski.document.bytes", int64(len(data)))
		hit = s.findIndex(data)
		sp.SetString("jsonski.index.tier", hit.tier)
	})
	return hit.ix
}

// indexHit is the index found (nil when the cache is off) and the tier
// serving it.
type indexHit struct {
	ix   *jsonski.Index
	tier string
}

// findIndex looks data up in the index cache, which builds the index on
// a miss; tier "none" means the cache is off.
func (s *Server) findIndex(data []byte) indexHit {
	if s.icache == nil {
		return indexHit{tier: "none"}
	}
	return indexHit{s.icache.Get(data), "cache"}
}

// responseBufPool recycles the output buffers of the streaming
// single-document path.
var responseBufPool = sync.Pool{
	New: func() any { return bufio.NewWriterSize(nil, 16<<10) },
}

// hideFlush exposes only the lineWriter methods, so the StreamSink's
// end-of-run Flush cannot push buffered output to the wire before
// serveSingle has decided between success and a full-status error. It
// holds one pointer, so it converts to a lineWriter without allocating.
type hideFlush struct{ bw *bufio.Writer }

func (h hideFlush) Write(p []byte) (int, error)       { return h.bw.Write(p) }
func (h hideFlush) WriteString(s string) (int, error) { return h.bw.WriteString(s) }
func (h hideFlush) WriteByte(c byte) error            { return h.bw.WriteByte(c) }

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
		trace, err := eval(&b.out, rec, idx, nil)
		b.traces = append(b.traces, trace)
		if err != nil {
			b.out.Truncate(mark)
			b.out.Write(errorLine(idx, err))
			b.errs++
		}
	}
	b.done <- struct{}{}
}

// readBatches frames an NDJSON body, read no further than its cap, into
// batches (see ndjson.Reader) and sends them on out in stream order,
// closing out when it returns. It returns the read error (nil at EOF),
// or ctx's error if the handler stopped taking batches.
//
// A body read to its cap ends there whether or not its last record does.
// So a last batch that reaches the cap without a newline, which is the
// one record after the last newline, is held back, not sent: the handler
// evaluates it once a read past the cap shows that the body ended there.
func readBatches(ctx context.Context, body *io.LimitedReader, out chan<- *batch) (held *batch, err error) {
	defer close(out)
	rd := ndjson.NewReader(body)
	for {
		b := getBatch()
		if err := rd.Next(&b.Batch); err != nil {
			putBatch(b)
			if err == io.EOF {
				err = nil
			}
			return held, err
		}
		if body.N == 0 && b.Data[len(b.Data)-1] != '\n' {
			held = b
			continue
		}
		select {
		case out <- b:
		case <-ctx.Done():
			putBatch(b)
			return nil, ctx.Err()
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
	// It reads no further than the size cap: the read that trips the
	// cap (ServeHTTP's http.MaxBytesReader) tells net/http so through
	// the response writer, unsynchronized with the handler's writes, so
	// the handler makes that read itself once it has joined the reader.
	capped := &io.LimitedReader{R: body, N: s.cfg.MaxBodyBytes}
	if capped.N <= 0 {
		capped.N = math.MaxInt64
	}
	batches := make(chan *batch)
	readDone := make(chan struct{})
	var (
		held    *batch
		readErr error
	)
	go func() {
		held, readErr = readBatches(ctx, capped, batches)
		close(readDone)
	}()

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
	<-readDone
	if readErr == nil && capped.N == 0 {
		// The reader stopped at the cap: one more byte trips it, unless
		// the body ends exactly there.
		var one [1]byte
		if _, err := io.ReadFull(body, one[:]); err != io.EOF {
			readErr = err
		}
	}
	if held != nil {
		// The record after the last newline is whole only if the body
		// ended at the cap; cut by the cap, it is dropped unanswered.
		if readErr == nil && submitErr == nil && ctx.Err() == nil {
			held.run(ev.eval)
			<-held.done
			writeBatch(held)
		} else {
			putBatch(held)
		}
	}
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
