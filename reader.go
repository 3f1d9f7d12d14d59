package jsonski

import (
	"context"
	"fmt"
	"io"
	"sync"

	"jsonski/internal/ndjson"
)

// RunReaderContext streams newline-delimited JSON records from r,
// evaluating the query against each record as soon as the read that
// completes it returns. Records are the non-blank lines of r, trimmed by
// bytes.TrimSpace. Match.Value aliases an internal read buffer that
// remains valid only for the duration of the callback.
//
// This is the record-sequence scenario of the paper (Figures 11 and 12)
// lifted from preloaded buffers to a true input stream. r is read in
// 64 KiB batches into one reused buffer, which a record longer than that
// grows by doubling: memory is bounded by the larger of 64 KiB and the
// longest record, within a factor of two, per worker.
//
// The loop stops between records as soon as ctx is done and returns
// ctx.Err() (records are never abandoned mid-evaluation, so the abort
// granularity is one record). Engine errors are wrapped with the index
// of the offending record.
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

// RunReaderContext streams newline-delimited JSON records from r,
// framed and buffered as by Query.RunReaderContext, evaluating every
// query of the set against each record: the shared pass, then the
// sidecar queries, as in Run. SetMatch.Value aliases an internal read
// buffer that remains valid only for the duration of the callback. The
// loop stops between records as soon as ctx is done and returns
// ctx.Err(). Engine errors are wrapped with the index of the offending
// record.
func (qs *QuerySet) RunReaderContext(ctx context.Context, r io.Reader, fn func(SetMatch)) (Stats, error) {
	return serial(readerSource(ctx, r), setFnRun(fn), qs.eval)
}

// RunReaderParallelContext is RunReaderContext with a pool of `workers`
// goroutines (the paper's task-level parallelism, Figure 12). Each
// worker claims a 64 KiB batch of records, the records of one read, and
// evaluates them in order in a buffer of its own. fn may be invoked
// concurrently. Record indexes reflect input order; callback order is
// unspecified. Once ctx is done no further records are dispatched,
// in-flight records drain, and ctx.Err() is returned.
func (q *Query) RunReaderParallelContext(ctx context.Context, r io.Reader, workers int, fn func(Match)) (Stats, error) {
	return q.parallel(readerSource(ctx, r), workers, fn)
}

// source feeds the record loop and the worker pool batches: a record of
// a slice each, or the records of one read of an NDJSON reader.
type source struct {
	recs [][]byte
	rd   *ndjson.Reader // nil for a slice
	ctx  context.Context
	n    int   // records handed out so far from a slice
	err  error // why the reader stopped: io.EOF, a read error or ctx's error
}

func sliceSource(recs [][]byte) *source { return &source{recs: recs} }

func readerSource(ctx context.Context, r io.Reader) *source {
	return &source{rd: ndjson.NewReader(r), ctx: ctx}
}

// next fills b with the next batch; it is false once the source is
// exhausted. A reader checks ctx before every read and the record loops
// before every record, so a run stops between records once ctx is done.
func (s *source) next(b *ndjson.Batch) bool {
	if s.rd == nil {
		if s.n == len(s.recs) {
			return false
		}
		b.Recs, b.First = s.recs[s.n:s.n+1:s.n+1], s.n
		s.n++
		return true
	}
	if s.err == nil {
		if s.err = s.ctx.Err(); s.err == nil {
			s.err = s.rd.Next(b)
		}
	}
	return s.err == nil
}

// done reports whether a reader's ctx is done; next then ends the source.
func (s *source) done() bool { return s.ctx != nil && s.ctx.Err() != nil }

// end is the error that ended the source, nil for a clean end.
func (s *source) end() error {
	if s.err == io.EOF {
		return nil
	}
	return s.err
}

// serial is the one serial record loop. It evaluates src's records in
// order, beginning each on sr, until the source ends, an engine fails
// (the error names the record), or the sink fails: its destination is
// broken, so the run stops before the next record.
func serial(src *source, sr *sinkRun, eval evalFunc) (Stats, error) {
	var out Stats
	var err error
	var b ndjson.Batch
	for err == nil && sr.err == nil && src.next(&b) {
		for i := 0; i < len(b.Recs) && err == nil && sr.err == nil && !src.done(); i++ {
			sr.begin(b.First+i, b.Recs[i])
			var st Stats
			if st, err = eval(input{data: b.Recs[i]}, sr); err != nil {
				err = wrapRecordErr(b.First+i, err)
			}
			out.merge(st)
		}
	}
	if err == nil {
		err = src.end()
	}
	return out, sr.finish(err)
}

// parallel is the one worker pool: `workers` goroutines claim src's
// batches and evaluate each record into a run of their own, so fn is
// called concurrently. Every record is evaluated even after an engine
// error; the first one, naming its record, is returned once the workers
// drain, ahead of the source's own error. One worker is the serial loop.
func (q *Query) parallel(src *source, workers int, fn func(Match)) (Stats, error) {
	if src.rd == nil {
		workers = min(workers, len(src.recs))
	}
	if workers <= 1 {
		return serial(src, newSinkRun(fnSink(fn)), q.eval)
	}
	var (
		mu    sync.Mutex // guards src, out and first; a reader is one stream, so its batches are read under it
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
			var b ndjson.Batch
			for {
				mu.Lock()
				ok := src.next(&b)
				mu.Unlock()
				if !ok {
					return
				}
				for i := 0; i < len(b.Recs) && !src.done(); i++ {
					sr.begin(b.First+i, b.Recs[i])
					st, err := q.eval(input{data: b.Recs[i]}, sr)
					mu.Lock()
					out.merge(st)
					if err != nil && first == nil {
						first = wrapRecordErr(b.First+i, err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
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
