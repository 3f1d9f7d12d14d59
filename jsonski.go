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

	trace *Trace
}

// Trace returns the bounded fast-forward event log recorded by an
// explain-mode run (RunSinkExplain), or nil for ordinary runs.
func (s Stats) Trace() *Trace { return s.trace }

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

// merge folds another aggregate into s, keeping s's trace, or o's when
// s has none.
func (s *Stats) merge(o Stats) {
	s.Matches += o.Matches
	s.InputBytes += o.InputBytes
	for g := range s.SkippedBytes {
		s.SkippedBytes[g] += o.SkippedBytes[g]
	}
	if s.trace == nil {
		s.trace = o.trace
	}
}

// runner is the common face of the engines: the streaming engine for
// automata it runs whole (a path, linear or with a descendant step, or
// a group of a QuerySet's members), and the segmented engine for paths
// with a split point.
type runner interface {
	Run(data []byte, emit core.EmitFunc) (core.Stats, error)
	RunIndexed(ix *stream.Index, emit core.EmitFunc) (core.Stats, error)
	SetTrace(t *telemetry.Trace)
}

// input is one record to evaluate: a buffer, or an index, in which case
// data is the index's buffer.
type input struct {
	data []byte
	ix   *Index
}

// indexed is the input of ix's buffer.
func indexed(ix *Index) input { return input{data: ix.Data(), ix: ix} }

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
		st, err = e.RunIndexed(in.ix.ix, sr.emit())
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
	return single(indexed(ix), newSinkRun(sink), q.eval)
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
