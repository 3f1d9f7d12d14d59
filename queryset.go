package jsonski

import (
	"jsonski/internal/automaton"
	"jsonski/internal/jsonpath"
)

// QuerySet evaluates several compiled path queries in a single streaming
// pass over the input. The traversal is shared; a substructure is
// fast-forwarded only when every query that is still live agrees it is
// irrelevant, so a set of related queries costs far less than running
// them one by one.
//
// The shared members' paths are numbered in one automaton whose live
// states travel down as one 63-bit state set. A set whose shared members
// need more states than that is packed, in set order, into groups that
// fit, and each group takes its own pass; matches of different groups do
// not interleave. Queries the shared traversal does not host — filters
// (their candidate probes decide from a single state), descendants, and
// deferred selectors (unions, negative indexes/bounds, backward slices)
// — are compiled to per-query sidecar engines and evaluated in
// additional passes after the shared ones. Matches of each query arrive
// in document order; matches of different sidecar queries do not
// interleave.
//
// A QuerySet is immutable and safe for concurrent use.
type QuerySet struct {
	exprs  []string
	passes []setPass // the shared groups, then one per sidecar query
}

// setPass is one pass of a set's evaluation: a group of shared members
// run by one automaton, or one sidecar query.
type setPass struct {
	*pass
	members []int // set position of each path the pass's engine reports
}

// sharable reports whether the shared traversal can host the path.
// Filters are excluded even though the engine streams them: a filter
// transition yields a candidate span probe, which is decided from a
// single state, and descendants would reorder the set's output.
func sharable(p *jsonpath.Path) bool {
	return !p.HasFilter() && !p.HasDescendant() && p.SplitPoint() < 0
}

// CompileSet parses and compiles all expressions. The query index passed
// to callbacks is the position in exprs. The shared members are packed,
// in set order, into groups of at most 63 states, a path taking one
// state per step plus one.
func CompileSet(exprs ...string) (*QuerySet, error) {
	if len(exprs) == 0 {
		return nil, &jsonpath.ParseError{Msg: "empty query set"}
	}
	qs := &QuerySet{exprs: append([]string(nil), exprs...)}
	var (
		side    []setPass
		paths   []*jsonpath.Path
		members []int
		states  int
	)
	group := func() {
		if len(paths) > 0 {
			g := setPass{pass: new(pass), members: members}
			g.pool.New = enginesOf(automaton.New(paths...))
			qs.passes = append(qs.passes, g)
		}
		paths, members, states = nil, nil, 0
	}
	for i, expr := range exprs {
		p, err := jsonpath.Parse(expr)
		if err != nil {
			return nil, err
		}
		if !sharable(p) {
			q, err := Compile(expr)
			if err != nil {
				return nil, err
			}
			side = append(side, setPass{pass: &q.pass, members: []int{i}})
			continue
		}
		n := len(p.Steps) + 1 // its steps and its accept state
		if states+n > automaton.MaxStates {
			group()
		}
		paths, members, states = append(paths, p), append(members, i), states+n
	}
	group()
	qs.passes = append(qs.passes, side...)
	return qs, nil
}

// MustCompileSet is CompileSet for statically known-good expressions.
func MustCompileSet(exprs ...string) *QuerySet {
	qs, err := CompileSet(exprs...)
	if err != nil {
		panic(err)
	}
	return qs
}

// Len returns the number of queries in the set.
func (qs *QuerySet) Len() int { return len(qs.exprs) }

// Expr returns the i-th query expression.
func (qs *QuerySet) Expr(i int) string { return qs.exprs[i] }

// SetMatch is one match produced by a QuerySet run.
type SetMatch struct {
	// Query is the index of the matching expression in the set.
	Query int
	Match
}

// eval is the one per-record evaluation of a QuerySet: one pass per
// group of shared members, then one per sidecar member, all delivering
// through sr (begun on the record) under set positions.
func (qs *QuerySet) eval(in input, sr *sinkRun) (Stats, error) {
	var out Stats
	for _, p := range qs.passes {
		sr.members = p.members
		st, err := p.eval(in, sr)
		out.merge(st)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// setFnRun starts a run delivering to fn; a nil fn only counts.
func setFnRun(fn func(SetMatch)) *sinkRun {
	if fn == nil {
		return newSinkRun(nil)
	}
	c := &callbackSink{setFn: fn}
	c.run = newSinkRun(c)
	return c.run
}

// Run evaluates all queries over one record, invoking fn for every match
// of every query. Shared-pass matches arrive in document order, one
// group after another; sidecar queries (filters, descendants, deferred
// selectors) follow, each in document order.
func (qs *QuerySet) Run(data []byte, fn func(SetMatch)) (Stats, error) {
	return single(input{data: data}, setFnRun(fn), qs.eval)
}

// RunIndexed is Run over a prebuilt structural index of the buffer: the
// one shared traversal also borrows ix's materialized word masks, so a
// set of queries over a hot document pays neither per-query passes nor
// per-word classification. Sidecar queries borrow the same masks. The
// index must stay alive (not finally Released) for the duration of the
// call.
func (qs *QuerySet) RunIndexed(ix *Index, fn func(SetMatch)) (Stats, error) {
	return single(indexed(ix), setFnRun(fn), qs.eval)
}

// RunSink evaluates all queries over one record, delivering every match
// of every query to sink. The Sink contract carries no query index — use
// Run with a callback when per-query attribution matters; RunSink suits
// the output modes where the queries' results interleave into one stream
// (e.g. NDJSON out). sink may be nil to only count matches.
func (qs *QuerySet) RunSink(data []byte, sink Sink) (Stats, error) {
	return single(input{data: data}, newSinkRun(sink), qs.eval)
}

// RunIndexedSink is RunSink over a prebuilt structural index of the
// buffer. The index must stay alive (not finally Released) for the
// duration of the call.
func (qs *QuerySet) RunIndexedSink(ix *Index, sink Sink) (Stats, error) {
	return single(indexed(ix), newSinkRun(sink), qs.eval)
}

// RunRecords evaluates all queries over a sequence of independent JSON
// records sequentially with a single shared engine, invoking fn for
// every match of every query. SetMatch.Record carries the record index.
// Engine errors are wrapped with the index of the offending record.
func (qs *QuerySet) RunRecords(records [][]byte, fn func(SetMatch)) (Stats, error) {
	return serial(sliceSource(records), setFnRun(fn), qs.eval)
}

// Counts returns the number of matches per query.
func (qs *QuerySet) Counts(data []byte) ([]int64, error) {
	counts := make([]int64, len(qs.exprs))
	_, err := qs.Run(data, func(m SetMatch) { counts[m.Query]++ })
	return counts, err
}
