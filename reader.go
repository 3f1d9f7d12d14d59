package jsonski

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"jsonski/internal/telemetry"
)

// RunReader streams newline-delimited JSON records from r, evaluating the
// query against each record as soon as its line is read. Blank lines are
// skipped. Match.Value aliases an internal per-record buffer that remains
// valid only for the duration of the callback.
//
// This is the record-sequence scenario of the paper (Figures 11 and 12)
// lifted from preloaded buffers to a true input stream; memory use is
// bounded by the largest single record.
func (q *Query) RunReader(r io.Reader, fn func(Match)) (Stats, error) {
	return q.RunReaderContext(context.Background(), r, fn)
}

// RunReaderContext is RunReader with cancellation: the loop stops between
// records as soon as ctx is done and returns ctx.Err() (records are never
// abandoned mid-evaluation, so the abort granularity is one record).
// Engine errors are wrapped with the index of the offending record.
func (q *Query) RunReaderContext(ctx context.Context, r io.Reader, fn func(Match)) (Stats, error) {
	return q.RunReaderSink(ctx, r, fnSink(fn))
}

// RunReaderSink streams newline-delimited JSON records from r into sink:
// one Begin per record carrying the record index, spans delivered as
// they are found, Flush at the end of the stream. Combined with a
// StreamSink this is the zero-copy NDJSON path — matched values flow
// from the record buffer straight to the writer.
func (q *Query) RunReaderSink(ctx context.Context, r io.Reader, sink Sink) (Stats, error) {
	return serial(readerSource(ctx, r), newSinkRun(sink), q.eval)
}

// RunReader streams newline-delimited JSON records from r, evaluating
// every query of the set against each record as soon as its line is
// read: the shared pass, then the sidecar queries, as in Run. Blank
// lines are skipped. SetMatch.Value aliases an internal per-record
// buffer that remains valid only for the duration of the callback.
func (qs *QuerySet) RunReader(r io.Reader, fn func(SetMatch)) (Stats, error) {
	return qs.RunReaderContext(context.Background(), r, fn)
}

// RunReaderContext is the QuerySet RunReader with cancellation: the
// loop stops between records as soon as ctx is done and returns
// ctx.Err(). Engine errors are wrapped with the index of the offending
// record.
func (qs *QuerySet) RunReaderContext(ctx context.Context, r io.Reader, fn func(SetMatch)) (Stats, error) {
	return serial(readerSource(ctx, r), setFnRun(fn), qs.eval)
}

// RunReaderParallel is RunReader with a pool of `workers` goroutines,
// each evaluating whole records (the paper's task-level parallelism).
// fn may be invoked concurrently. Record indexes reflect input order;
// callback order is unspecified.
func (q *Query) RunReaderParallel(r io.Reader, workers int, fn func(Match)) (Stats, error) {
	return q.RunReaderParallelContext(context.Background(), r, workers, fn)
}

// RunReaderParallelContext is RunReaderParallel with cancellation: once
// ctx is done no further records are dispatched, in-flight records drain,
// and ctx.Err() is returned.
func (q *Query) RunReaderParallelContext(ctx context.Context, r io.Reader, workers int, fn func(Match)) (Stats, error) {
	return q.parallel(readerSource(ctx, r), workers, fn)
}

// source feeds the record loop and the worker pool: a slice of records,
// or the non-blank lines of an NDJSON reader, which also keeps the
// per-record latency histogram behind Stats.Latency.
type source struct {
	recs [][]byte
	br   *bufio.Reader // nil for a slice
	ctx  context.Context
	lat  telemetry.Histogram
	n    int   // records handed out so far
	err  error // why the reader stopped: io.EOF, a read error or ctx's error
}

func sliceSource(recs [][]byte) *source { return &source{recs: recs} }

func readerSource(ctx context.Context, r io.Reader) *source {
	return &source{br: bufio.NewReaderSize(r, 1<<16), ctx: ctx}
}

// next hands out the next record and its index; ok is false once the
// source is exhausted. A reader checks ctx before every line, so a run
// stops between records once ctx is done. Each line is a fresh buffer,
// so records can cross goroutines.
func (s *source) next() (rec []byte, i int, ok bool) {
	if s.br == nil {
		if s.n == len(s.recs) {
			return nil, 0, false
		}
		s.n++
		return s.recs[s.n-1], s.n - 1, true
	}
	for s.err == nil {
		if s.err = s.ctx.Err(); s.err != nil {
			break
		}
		var line []byte
		line, s.err = readLine(s.br)
		if len(line) > 0 {
			s.n++
			return line, s.n - 1, true
		}
	}
	return nil, 0, false
}

// readLine reads one newline-terminated record, handling lines longer
// than the buffered reader's internal buffer and trimming whitespace.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadBytes('\n')
	return bytes.TrimSpace(line), err
}

// eval evaluates one record with fn, timing it when the source is a
// reader.
func (s *source) eval(fn evalFunc, rec []byte, sr *sinkRun) (Stats, error) {
	if s.br == nil {
		return fn(input{data: rec}, sr)
	}
	t0 := time.Now()
	st, err := fn(input{data: rec}, sr)
	s.lat.Observe(time.Since(t0))
	return st, err
}

// end is the error that ended the source, nil for a clean end.
func (s *source) end() error {
	if s.err == io.EOF {
		return nil
	}
	return s.err
}

// latency snapshots the per-record latencies for Stats.Latency: nil for
// a slice, which is never timed, and for an empty run.
func (s *source) latency() *LatencySnapshot {
	snap := s.lat.Snapshot()
	if snap.Count == 0 {
		return nil
	}
	return latencyFromSnapshot(snap)
}

// serial is the one serial record loop. It evaluates src's records in
// order, beginning each on sr, until the source ends, an engine fails
// (the error names the record), or the sink fails: its destination is
// broken, so the remaining records are not read.
func serial(src *source, sr *sinkRun, eval evalFunc) (Stats, error) {
	var out Stats
	var err error
	for err == nil && sr.err == nil {
		rec, i, ok := src.next()
		if !ok {
			err = src.end()
			break
		}
		sr.begin(i, rec)
		var st Stats
		if st, err = src.eval(eval, rec, sr); err != nil {
			err = wrapRecordErr(i, err)
		}
		out.merge(st)
	}
	out.latency = src.latency()
	return out, sr.finish(err)
}

// parallel is the one worker pool: `workers` goroutines claim src's
// records and evaluate each into a run of their own, so fn is called
// concurrently. Every record is evaluated even after an engine error;
// the first one, naming its record, is returned once the workers drain,
// ahead of the source's own error. One worker is the serial loop.
func (q *Query) parallel(src *source, workers int, fn func(Match)) (Stats, error) {
	if src.br == nil {
		workers = min(workers, len(src.recs))
	}
	if workers <= 1 {
		return serial(src, newSinkRun(fnSink(fn)), q.eval)
	}
	var (
		mu    sync.Mutex // guards src, out and first; a reader is one stream, so its lines are read under it
		out   Stats
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sr := newSinkRun(fnSink(fn))
			defer sr.finish(nil)
			for {
				mu.Lock()
				rec, i, ok := src.next()
				mu.Unlock()
				if !ok {
					return
				}
				sr.begin(i, rec)
				st, err := src.eval(q.eval, rec, sr)
				mu.Lock()
				out.merge(st)
				if err != nil && first == nil {
					first = wrapRecordErr(i, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.latency = src.latency()
	if first == nil {
		first = src.end()
	}
	return out, first
}

// wrapRecordErr tags an engine error with the index of the record that
// produced it, so callers of the multi-record entry points can report
// which line of an NDJSON input is malformed.
func wrapRecordErr(record int, err error) error {
	return fmt.Errorf("record %d: %w", record, err)
}
