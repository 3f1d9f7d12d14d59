// Package jsonski is a streaming JSONPath evaluator with bit-parallel
// fast-forwarding, reproducing "JSONSki: Streaming Semi-structured Data
// with Bit-Parallel Fast-Forwarding" (Jiang & Zhao, ASPLOS 2022).
//
// A compiled Query scans a JSON buffer in a single forward pass, emitting
// every value the path selects, without building a parse tree or index.
// Substructures that cannot affect the query — wrong-typed attributes,
// unmatched values, object remainders after a match, out-of-range array
// elements — are fast-forwarded using word-sized structural bitmaps, so
// on typical path queries well over 95% of the input is never tokenized.
//
// Supported path syntax (RFC 9535): $ (root), .name and ['name']
// (child), [n] (index, negatives count from the end), [m:n:s] (slices
// with optional stride, backward with negative stride), [*] and .*
// (wildcards), [?expr] (filters: existence tests, comparisons, &&/||/!),
// [a,b,...] (unions), and ..name / ..* (descendant — the paper's stated
// future work). One engine streams every path: it carries a set of
// automaton states down the descent, which holds one state on a linear
// path and more below a descendant step. As the paper observes (§5.1) a
// descendant's level is unknown, so type-based fast-forwarding does not
// apply below it; dead subtrees are still skipped bit-parallel. Filter
// steps stay on the streaming engine: each candidate value is captured
// with one fast-forward movement and decided by a span probe. Selectors
// whose RFC semantics need the container length or per-selector output
// order (unions, negative indexes/bounds, backward slices), a second
// descendant step, and steps past the 62nd run segmented — a streamable
// prefix fast-forwards as usual and only the selected spans are handed
// to a reference evaluator for the deferred tail.
//
//	q := jsonski.MustCompile("$.place.name")
//	stats, err := q.Run(data, func(m jsonski.Match) {
//	    fmt.Printf("%s\n", m.Value)
//	})
package jsonski

import (
	"fmt"
	"sync"

	"jsonski/internal/automaton"
	"jsonski/internal/core"
	"jsonski/internal/fastforward"
	"jsonski/internal/jsonpath"
	"jsonski/internal/stream"
	"jsonski/internal/telemetry"
)

// Match is one value selected by the query. Value aliases the input
// buffer — copy it if it must outlive the buffer.
type Match struct {
	// Start and End delimit the match in the input buffer.
	Start, End int
	// Value is input[Start:End]: the matched JSON value, whitespace
	// trimmed (strings keep their quotes).
	Value []byte
	// Record is the index of the containing record for the RunRecords
	// entry points, 0 for Run.
	Record int
}

// Stats reports how a run spent its input, mirroring the paper's
// fast-forward accounting (Table 6).
type Stats struct {
	// Matches is the number of values emitted.
	Matches int64
	// InputBytes is the total input length processed, counted once per
	// pass: a QuerySet that takes several passes over a record (one per
	// group of shared members, one per sidecar query) counts the
	// record's bytes once for each, as its passes really read them.
	// Every pass keeps InputBytes == ScannedBytes + Σ SkippedBytes, so
	// the sum does too.
	InputBytes int64
	// SkippedBytes counts fast-forwarded bytes per group G1..G5.
	SkippedBytes [5]int64

	trace   *Trace
	latency *LatencySnapshot
}

// Trace returns the bounded fast-forward event log recorded by an
// explain-mode run (RunExplain), or nil for ordinary runs.
func (s Stats) Trace() *Trace { return s.trace }

// Latency returns the per-record evaluation-latency distribution
// recorded by the streaming reader entry points (RunReader and friends),
// or nil for single-buffer runs, which have exactly one latency — the
// call's own duration.
func (s Stats) Latency() *LatencySnapshot { return s.latency }

// FastForwardRatio is the fraction of input bytes that were
// fast-forwarded over rather than parsed (paper Table 6, "Overall").
func (s Stats) FastForwardRatio() float64 {
	if s.InputBytes == 0 {
		return 0
	}
	var t int64
	for _, v := range s.SkippedBytes {
		t += v
	}
	return float64(t) / float64(s.InputBytes)
}

// GroupRatio is the fraction of input bytes fast-forwarded by group g
// (0-based: 0 ↔ G1 ... 4 ↔ G5).
func (s Stats) GroupRatio(g int) float64 {
	if s.InputBytes == 0 || g < 0 || g >= len(s.SkippedBytes) {
		return 0
	}
	return float64(s.SkippedBytes[g]) / float64(s.InputBytes)
}

// ScannedBytes is the complement of the fast-forward accounting: the
// bytes the engine actually examined (input minus every group's skips).
// InputBytes == ScannedBytes + sum(SkippedBytes) — each input byte is
// either charged to a Table 1 group or was scanned. Clamped at zero.
func (s Stats) ScannedBytes() int64 {
	n := s.InputBytes
	for _, v := range s.SkippedBytes {
		n -= v
	}
	if n < 0 {
		return 0
	}
	return n
}

func (s *Stats) add(st core.Stats) {
	s.Matches += st.Matches
	s.InputBytes += st.InputBytes
	for g := 0; g < int(fastforward.NumGroups); g++ {
		s.SkippedBytes[g] += st.Skipped.SkippedBytes[g]
	}
}

// merge folds another aggregate into s. Trace and latency attachments
// are carried over when s has none of its own.
func (s *Stats) merge(o Stats) {
	s.Matches += o.Matches
	s.InputBytes += o.InputBytes
	for g := range s.SkippedBytes {
		s.SkippedBytes[g] += o.SkippedBytes[g]
	}
	if s.trace == nil {
		s.trace = o.trace
	}
	if s.latency == nil {
		s.latency = o.latency
	} else if o.latency != nil {
		s.latency.merge(*o.latency)
	}
}

// runner is the common face of the engines: the streaming engine for
// automata it runs whole (a path, linear or with a descendant step, or
// a group of a QuerySet's members), and the segmented engine for paths
// with a split point. A whole index is the window [0, Len).
type runner interface {
	Run(data []byte, emit core.EmitFunc) (core.Stats, error)
	RunIndexedWindow(ix *stream.Index, lo, hi int, emit core.EmitFunc) (core.Stats, error)
	SetTrace(t *telemetry.Trace)
}

// input is one record to evaluate: a buffer, or the [lo, hi) window of
// an index's buffer, in which case data is the whole buffer.
type input struct {
	data   []byte
	ix     *Index
	lo, hi int
}

// indexed is the input of the [lo, hi) window of ix's buffer.
func indexed(ix *Index, lo, hi int) input {
	return input{data: ix.Data(), ix: ix, lo: lo, hi: hi}
}

// Query is a compiled JSONPath expression. It is immutable and safe for
// concurrent use; each concurrent evaluation draws a private engine from
// an internal pool.
type Query struct {
	path *jsonpath.Path
	pass
}

// Compile parses and compiles a JSONPath expression.
func Compile(expr string) (*Query, error) {
	p, err := jsonpath.Parse(expr)
	if err != nil {
		return nil, err
	}
	q := &Query{path: p}
	if p.SplitPoint() >= 0 {
		// Deferred selectors (unions, negative indexes/bounds, backward
		// slices, a second descendant, descendant+filter mixes, overlong
		// paths): streamable prefix through the engine, deferred tail
		// through the reference evaluator.
		q.pool.New = func() any { return runner(core.NewSegmentedEngine(p)) }
		return q, nil
	}
	q.pool.New = enginesOf(automaton.New(p))
	return q, nil
}

// MustCompile is Compile for statically known-good expressions; it panics
// on error.
func MustCompile(expr string) *Query {
	q, err := Compile(expr)
	if err != nil {
		panic(err)
	}
	return q
}

// String returns the source expression.
func (q *Query) String() string { return q.path.String() }

// pass is one evaluation pass over a record: a pool of engines for one
// compiled automaton (a query's path, or a group of a QuerySet's
// members) or for one path with a split point.
type pass struct{ pool sync.Pool }

// enginesOf returns the pool constructor of the engines for aut.
func enginesOf(aut *automaton.Automaton) func() any {
	return func() any { return runner(core.NewEngine(aut)) }
}

// eval is the one per-record evaluation pass: a pooled engine runs over
// in, delivering spans through sr, which the caller has begun on the
// record, and recording sr's explain trace, if any.
func (p *pass) eval(in input, sr *sinkRun) (Stats, error) {
	e := p.pool.Get().(runner)
	defer p.pool.Put(e)
	if sr.trace != nil {
		e.SetTrace(sr.trace)
		defer e.SetTrace(nil)
	}
	var st core.Stats
	var err error
	if in.ix == nil {
		st, err = e.Run(in.data, sr.emit())
	} else {
		st, err = e.RunIndexedWindow(in.ix.ix, in.lo, in.hi, sr.emit())
	}
	var out Stats
	out.add(st)
	if sr.trace != nil {
		out.trace = publicTrace(sr.trace)
	}
	return out, err
}

// evalFunc is a per-record evaluation: Query.eval or QuerySet.eval.
type evalFunc func(in input, sr *sinkRun) (Stats, error)

// single is the body of every single-record entry point: it evaluates
// in as record 0 into sr and finishes the run.
func single(in input, sr *sinkRun, eval evalFunc) (Stats, error) {
	sr.begin(0, in.data)
	st, err := eval(in, sr)
	return st, sr.finish(err)
}

// Run streams a single JSON record (or buffer holding one record),
// invoking fn for every match in document order. fn may be nil to only
// count matches.
func (q *Query) Run(data []byte, fn func(Match)) (Stats, error) {
	return q.RunSink(data, fnSink(fn))
}

// RunSink streams a single JSON record into sink: Begin binds the
// record, each match arrives as a Span, and Flush closes the run. sink
// may be nil to only count matches. A sink error stops delivery but not
// evaluation; it is returned unless the engine itself failed.
func (q *Query) RunSink(data []byte, sink Sink) (Stats, error) {
	return single(input{data: data}, newSinkRun(sink), q.eval)
}

// RunIndexed is Run over a prebuilt structural index of the buffer: the
// engine borrows ix's materialized word masks instead of classifying
// words on the fly, which pays off whenever the same document is
// streamed more than once. The index must stay alive (not finally
// Released) for the duration of the call.
func (q *Query) RunIndexed(ix *Index, fn func(Match)) (Stats, error) {
	return q.RunIndexedSink(ix, fnSink(fn))
}

// RunIndexedSink is RunSink over a prebuilt structural index of the
// buffer. The index must stay alive (not finally Released) for the
// duration of the call.
func (q *Query) RunIndexedSink(ix *Index, sink Sink) (Stats, error) {
	return q.RunIndexedWindowSink(ix, 0, ix.Len(), sink)
}

// RunIndexedWindow evaluates the query over the [lo, hi) byte window of
// an indexed buffer, treating the window as one complete JSON record.
// The window borrows the whole-buffer masks — no per-record index build
// or copy — which is how individual records of a serialized NDJSON
// corpus (see LoadIndex, Catalog) are queried zero-copy: pass each
// record's Span as the window. Match offsets are absolute positions in
// the underlying buffer. The index must stay alive for the duration of
// the call.
func (q *Query) RunIndexedWindow(ix *Index, lo, hi int, fn func(Match)) (Stats, error) {
	return q.RunIndexedWindowSink(ix, lo, hi, fnSink(fn))
}

// RunIndexedWindowSink is RunIndexedWindow delivering into a Sink.
func (q *Query) RunIndexedWindowSink(ix *Index, lo, hi int, sink Sink) (Stats, error) {
	// Every indexed entry point comes through here, so this is the one
	// check that the window lies inside the index; the sink is not called.
	if lo < 0 || lo > hi || hi > ix.Len() {
		return Stats{}, fmt.Errorf("jsonski: window [%d, %d) is outside the index's %d bytes", lo, hi, ix.Len())
	}
	return single(indexed(ix, lo, hi), newSinkRun(sink), q.eval)
}

// Count returns the number of matches in data.
func (q *Query) Count(data []byte) (int64, error) {
	st, err := q.Run(data, nil)
	return st.Matches, err
}

// RunRecords streams a sequence of independent JSON records sequentially
// with a single engine, invoking fn for each match. Match.Record carries
// the record index.
func (q *Query) RunRecords(records [][]byte, fn func(Match)) (Stats, error) {
	return q.RunRecordsSink(records, fnSink(fn))
}

// RunRecordsSink streams a sequence of independent JSON records
// sequentially with a single engine into sink; Begin is called once per
// record with the record index. A sink error aborts the remaining
// records (the output destination is broken); an engine error is wrapped
// with the index of the offending record.
func (q *Query) RunRecordsSink(records [][]byte, sink Sink) (Stats, error) {
	return serial(sliceSource(records), newSinkRun(sink), q.eval)
}

// RunRecordsParallel processes independent records with `workers`
// goroutines (the paper's small-record task parallelism, Figure 12).
// fn, when non-nil, is called concurrently from multiple goroutines and
// must be safe for that. Records are claimed dynamically, so skewed
// record sizes still balance. The first error, if any, is returned after
// all workers drain.
func (q *Query) RunRecordsParallel(records [][]byte, workers int, fn func(Match)) (Stats, error) {
	return q.parallel(sliceSource(records), workers, fn)
}

// All collects every match into a slice of copied values. Convenient for
// small result sets; for large ones prefer RunSink with a StreamSink or
// Run with a streaming fn.
func (q *Query) All(data []byte) ([][]byte, error) {
	var sink BufferSink
	_, err := q.RunSink(data, &sink)
	return sink.Values, err
}
