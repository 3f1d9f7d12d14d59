package jsonski

import (
	"io"
	"sync"

	"jsonski/internal/core"
	"jsonski/internal/telemetry"
)

// Sink consumes the spans a run selects. It replaces ad-hoc callback
// buffering as the output path of every entry point: Run* routes
// matches through a sink, and the four implementations below cover the
// common shapes — buffered collection (BufferSink), zero-copy streaming
// to a writer (StreamSink), counting (CountSink), and fan-out for
// crosschecks (Tee).
//
// Begin is called once per record before any of its spans, binding the
// record's buffer; Span receives each match as a half-open byte range
// of that buffer, whitespace-trimmed, in document order. A Span error
// stops further delivery — the engine still finishes the record (its
// statistics stay exact), and the error is returned from the entry
// point unless the engine itself failed. Flush is called once at the
// end of the run, even after an error.
//
// Sinks are driven by one run at a time; none of the implementations
// here is safe for concurrent use.
type Sink interface {
	// Begin starts record `record`, whose bytes are data. Spans that
	// follow index into data.
	Begin(record int, data []byte)
	// Span delivers one match: data[start:end] of the current record.
	Span(start, end int) error
	// Flush marks the end of the run, flushing any buffered output.
	Flush() error
}

// BufferSink collects every span as a copied value — the buffered
// output mode (All's behavior as a Sink).
type BufferSink struct {
	// Values holds one copy per match, in document order across all
	// records of the run.
	Values [][]byte

	data []byte
}

// Begin implements Sink.
func (b *BufferSink) Begin(_ int, data []byte) { b.data = data }

// Span implements Sink, copying the value out of the record buffer.
func (b *BufferSink) Span(start, end int) error {
	b.Values = append(b.Values, append([]byte(nil), b.data[start:end]...))
	return nil
}

// Flush implements Sink.
func (b *BufferSink) Flush() error { return nil }

// Reset drops collected values, retaining capacity for reuse.
func (b *BufferSink) Reset() { b.Values = b.Values[:0] }

// StreamSink writes every span straight from the input buffer to W —
// no per-match allocation or copy — framing each one with Prefix and
// Suffix. It is the zero-copy output mode behind the server's NDJSON
// responses and the jsonski CLI.
//
// W is typically buffered (a *bufio.Writer); Flush forwards to W when
// it implements `Flush() error`.
type StreamSink struct {
	// W receives Prefix, the raw span bytes, then Suffix per match.
	W io.Writer
	// Prefix and Suffix frame each span; NewStreamSink sets Suffix to
	// a newline and leaves Prefix empty.
	Prefix, Suffix []byte
	// Spans counts the spans written so far.
	Spans int64

	data []byte
}

// NewStreamSink returns a StreamSink writing newline-terminated spans
// to w.
func NewStreamSink(w io.Writer) *StreamSink {
	return &StreamSink{W: w, Suffix: []byte{'\n'}}
}

// Begin implements Sink.
func (s *StreamSink) Begin(_ int, data []byte) { s.data = data }

// Span implements Sink, writing the framed value without copying it.
func (s *StreamSink) Span(start, end int) error {
	if len(s.Prefix) > 0 {
		if _, err := s.W.Write(s.Prefix); err != nil {
			return err
		}
	}
	if _, err := s.W.Write(s.data[start:end]); err != nil {
		return err
	}
	if len(s.Suffix) > 0 {
		if _, err := s.W.Write(s.Suffix); err != nil {
			return err
		}
	}
	s.Spans++
	return nil
}

// Flush implements Sink, flushing W when it is flushable.
func (s *StreamSink) Flush() error {
	if f, ok := s.W.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// CountSink counts spans and discards them — the output mode of
// -count/-stats style runs. (The Run entry points with a nil callback
// or nil sink count without any sink dispatch at all; CountSink exists
// for composition, e.g. inside a Tee.)
type CountSink struct {
	// Spans is the number of spans delivered.
	Spans int64
}

// Begin implements Sink.
func (c *CountSink) Begin(int, []byte) {}

// Span implements Sink.
func (c *CountSink) Span(int, int) error { c.Spans++; return nil }

// Flush implements Sink.
func (c *CountSink) Flush() error { return nil }

// Tee fans every sink call out to all of sinks in order, used by
// crosscheck tests to drive two output modes from one evaluation. Span
// and Flush call every sink even after one errors; the first error is
// reported.
func Tee(sinks ...Sink) Sink { return teeSink(sinks) }

type teeSink []Sink

func (t teeSink) Begin(record int, data []byte) {
	for _, s := range t {
		s.Begin(record, data)
	}
}

func (t teeSink) Span(start, end int) error {
	var first error
	for _, s := range t {
		if err := s.Span(start, end); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (t teeSink) Flush() error {
	var first error
	for _, s := range t {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// callbackSink adapts the callback entry points onto the sink path, so
// every Run* flows through one output mechanism. QuerySet runs set setFn
// instead of fn, and run, which knows the member each span belongs to.
type callbackSink struct {
	fn     func(Match)
	setFn  func(SetMatch)
	run    *sinkRun
	data   []byte
	record int
}

func (c *callbackSink) Begin(record int, data []byte) { c.record, c.data = record, data }

func (c *callbackSink) Span(start, end int) error {
	m := Match{Start: start, End: end, Value: c.data[start:end], Record: c.record}
	if c.setFn != nil {
		c.setFn(SetMatch{Query: c.run.query, Match: m})
	} else {
		c.fn(m)
	}
	return nil
}

func (c *callbackSink) Flush() error { return nil }

// fnSink wraps a callback as a sink; a nil callback becomes a nil sink
// (count-only: the engine skips emit dispatch entirely).
func fnSink(fn func(Match)) Sink {
	if fn == nil {
		return nil
	}
	return &callbackSink{fn: fn}
}

// sinkRun is the output side of one run. It adapts Sink.Span to the
// engines' span callback, latches the sink's first error without
// aborting the engine mid-record, and settles Flush/error precedence at
// the end. It also carries an explain run's movement log and, for a
// QuerySet run, the set position of the spans being delivered. Runs are
// pooled with their span callback bound, so starting one allocates
// nothing.
type sinkRun struct {
	sink    Sink
	err     error
	trace   *telemetry.Trace // explain runs only
	query   int              // QuerySet runs: set position of the span being delivered
	members []int            // QuerySet runs: set position of each path of the running pass

	deliverFn core.EmitFunc // sr.deliver
}

var sinkRuns = sync.Pool{New: func() any {
	sr := new(sinkRun)
	sr.deliverFn = sr.deliver
	return sr
}}

// newSinkRun starts a run into sink; a nil sink only counts. finish
// ends the run and returns it to the pool.
func newSinkRun(sink Sink) *sinkRun {
	sr := sinkRuns.Get().(*sinkRun)
	sr.sink = sink
	return sr
}

// begin starts record `record`, whose bytes are data.
func (sr *sinkRun) begin(record int, data []byte) {
	if sr.sink != nil {
		sr.sink.Begin(record, data)
	}
}

// emit is the engines' span callback: nil for a nil sink, keeping the
// engines' no-output fast path.
func (sr *sinkRun) emit() core.EmitFunc {
	if sr.sink == nil {
		return nil
	}
	return sr.deliverFn
}

func (sr *sinkRun) deliver(member, start, end int) {
	if sr.err != nil {
		return // sink already failed: drop further spans, let the run finish
	}
	if sr.members != nil {
		sr.query = sr.members[member]
	}
	if err := sr.sink.Span(start, end); err != nil {
		sr.err = err
	}
}

// finish flushes the sink, merges errors — the engine's error wins (it
// describes the input), then the sink's first write error, then
// Flush's — and returns the run to the pool.
func (sr *sinkRun) finish(engineErr error) error {
	err := engineErr
	if err == nil {
		err = sr.err
	}
	if sr.sink != nil {
		if ferr := sr.sink.Flush(); err == nil {
			err = ferr
		}
	}
	*sr = sinkRun{deliverFn: sr.deliverFn}
	sinkRuns.Put(sr)
	return err
}
