package main

// Every in-process call into a jsonski layer lives in this file, so an
// API change to the library needs a change here and nowhere else in the
// benchmark. The root jsonski API reaches every layer, classification
// included (BuildIndex is the stream package's index build).

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"jsonski"
)

// layerTimes is one op's cost split by layer, the median over reps of
// one evaluation of all of the op's units.
type layerTimes struct {
	index       time.Duration // classification: build (and release) every unit's index
	lazy        time.Duration // count-only evaluation classifying on the fly, one engine for all units
	indexed     time.Duration // count-only evaluation over the prebuilt indexes
	indexedSink time.Duration // the same with every match written through a StreamSink
	reader      time.Duration // the NDJSON reader path over the op's input text
	inproc      time.Duration // exactly what the front end runs for the op, minus the front end
	hit         time.Duration // one warmed IndexCache.Get + Release (median over units)
	nav         time.Duration // one indexed Navigator lookup (median over lookups)
}

// layerRun is one op's measured layers plus the facts the metrics need.
type layerRun struct {
	o      *op
	times  layerTimes
	stats  jsonski.Stats // of the lazy evaluation
	cached bool          // the front end serves this op from its index cache: no classification
}

// opEngine is an op's compiled form: a single query, a set, or the
// segments of an on-demand lookup.
type opEngine struct {
	q    *jsonski.Query
	qs   *jsonski.QuerySet
	segs []string
}

func compileOp(o *op) (opEngine, error) {
	var e opEngine
	var err error
	switch o.kind {
	case opQuery:
		e.q, err = jsonski.Compile(o.paths[0])
	case opMulti:
		e.qs, err = jsonski.CompileSet(o.paths...)
	case opDoc:
		e.segs, err = jsonski.ParseDotPath(o.get)
	}
	return e, err
}

// frontFraming is the output framing each front end wraps a match in.
func frontFraming(w workload) (prefix, suffix []byte) {
	if w.http {
		return []byte(`{"record":0,"value":`), []byte("}\n")
	}
	return nil, []byte("\n")
}

// measureLayers times every layer of every op, rep times, recording a
// bench span around each layer call, and returns the per-op medians.
func measureLayers(ctx context.Context, r *runner, ops []*op, budget time.Duration) ([]layerRun, error) {
	engines := make([]opEngine, len(ops))
	for i, o := range ops {
		e, err := compileOp(o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.id, err)
		}
		engines[i] = e
	}
	prefix, suffix := frontFraming(r.w)
	runs := make([]layerRun, len(ops))
	samples := make([][]layerTimes, len(ops))
	start := time.Now()
	for rep := 0; ; rep++ {
		for i, o := range ops {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			lt, st, err := r.layerRep(ctx, o, engines[i], prefix, suffix)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", o.id, err)
			}
			samples[i] = append(samples[i], lt)
			if rep == 0 {
				runs[i] = layerRun{o: o, stats: st, cached: r.w.http && o.single}
				r.checkIdentity(o, st)
			}
		}
		// At least three reps; more while the budget allows another.
		perRep := time.Since(start) / time.Duration(rep+1)
		if rep+1 >= 3 && time.Since(start)+perRep > budget {
			break
		}
	}
	for i := range runs {
		runs[i].times = medianTimes(samples[i])
	}
	return runs, nil
}

// layerRep is one rep of one op: each layer timed under its own span.
func (r *runner) layerRep(ctx context.Context, o *op, e opEngine, prefix, suffix []byte) (layerTimes, jsonski.Stats, error) {
	var (
		lt    layerTimes
		st    jsonski.Stats
		err   error
		spans = r.spans
	)
	root := spans.start("op "+o.id, nil)
	defer root.end()

	sp := spans.start("stream.index", root)
	ixs := make([]*jsonski.Index, len(o.docs))
	for i, d := range o.docs {
		ixs[i] = jsonski.BuildIndex(d)
	}
	lt.index = sp.end()
	defer func() {
		for _, ix := range ixs {
			ix.Release()
		}
	}()

	sp = spans.start("core.lazy", root)
	switch o.kind {
	case opQuery:
		st, err = e.q.RunRecords(o.docs, nil)
	case opMulti:
		st, err = e.qs.RunRecords(o.docs, nil)
	case opDoc:
		for _, d := range o.docs {
			doc := jsonski.Open(d)
			_, err = doc.Lookup(e.segs...).Raw()
			if cerr := doc.Close(); err == nil {
				err = cerr
			}
			s := doc.Stats()
			st.Matches += s.Matches
			st.InputBytes += s.InputBytes
			for g := range st.SkippedBytes {
				st.SkippedBytes[g] += s.SkippedBytes[g]
			}
		}
	}
	lt.lazy = sp.end()
	if err != nil {
		return lt, st, err
	}

	sp = spans.start("core.indexed", root)
	for _, ix := range ixs {
		switch o.kind {
		case opQuery:
			_, err = e.q.RunIndexed(ix, nil)
		case opMulti:
			_, err = e.qs.RunIndexed(ix, nil)
		case opDoc:
			err = lookupIndexed(ix, e.segs)
		}
		if err != nil {
			return lt, st, err
		}
	}
	lt.indexed = sp.end()

	sp = spans.start("sink.emit", root)
	for _, ix := range ixs {
		sink := &jsonski.StreamSink{W: io.Discard, Prefix: prefix, Suffix: suffix}
		switch o.kind {
		case opQuery:
			_, err = e.q.RunIndexedSink(ix, sink)
		case opMulti:
			_, err = e.qs.RunIndexedSink(ix, sink)
		case opDoc:
			err = lookupIndexed(ix, e.segs)
		}
		if err != nil {
			return lt, st, err
		}
	}
	lt.indexedSink = sp.end()

	if o.kind != opDoc {
		sp = spans.start("reader", root)
		switch o.kind {
		case opQuery:
			_, err = e.q.RunReaderSink(ctx, bytes.NewReader(o.input), nil)
		case opMulti:
			_, err = e.qs.RunReaderContext(ctx, bytes.NewReader(o.input), nil)
		}
		lt.reader = sp.end()
		if err != nil {
			return lt, st, err
		}
	}

	sp = spans.start("frontend.inproc", root)
	err = r.inproc(ctx, o, e, ixs, prefix, suffix)
	lt.inproc = sp.end()
	if err != nil {
		return lt, st, err
	}

	sample := o.docs
	if len(sample) > r.cfg.sizes.SampleRecords {
		sample = sample[:r.cfg.sizes.SampleRecords]
	}
	sp = spans.start("indexcache.hit", root)
	lt.hit = cacheHits(sample)
	sp.end()

	sp = spans.start("core.nav", root)
	lt.nav, err = navLookups(ixs[:len(sample)], navPaths(o))
	sp.end()
	return lt, st, err
}

// inproc runs what the op's front end runs, in process: for the CLI
// the lazy sink run (or the reader over NDJSON), for jsonskid the
// per-record lazy runs of an NDJSON body, or for a single hot document
// the indexed run its index cache makes possible.
func (r *runner) inproc(ctx context.Context, o *op, e opEngine, ixs []*jsonski.Index, prefix, suffix []byte) error {
	sink := &jsonski.StreamSink{W: io.Discard, Prefix: prefix, Suffix: suffix}
	var err error
	switch {
	case o.kind == opDoc:
		err = lookupIndexed(ixs[0], e.segs)
	case !r.w.http && o.single:
		_, err = e.q.RunSink(o.input, sink)
	case !r.w.http:
		_, err = e.q.RunReaderSink(ctx, bytes.NewReader(o.input), sink)
	case o.single:
		_, err = e.q.RunIndexedSink(ixs[0], sink)
	case o.kind == opMulti:
		for _, d := range o.docs {
			if _, err = e.qs.RunSink(d, sink); err != nil {
				break
			}
		}
	default:
		for _, d := range o.docs {
			if _, err = e.q.RunSink(d, sink); err != nil {
				break
			}
		}
	}
	return err
}

func lookupIndexed(ix *jsonski.Index, segs []string) error {
	doc := jsonski.OpenIndexed(ix)
	_, err := doc.Lookup(segs...).Raw()
	if cerr := doc.Close(); err == nil {
		err = cerr
	}
	return err
}

// navPaths are the on-demand lookups probed on an op's units.
func navPaths(o *op) []string {
	if o.kind == opDoc {
		return []string{o.get}
	}
	if o.single {
		return largePaths[o.dataset]
	}
	return recordPaths[o.dataset]
}

// navLookups times each lookup over each prebuilt index and returns
// the median per lookup.
func navLookups(ixs []*jsonski.Index, paths []string) (time.Duration, error) {
	var per []time.Duration
	for _, p := range paths {
		segs, err := jsonski.ParseDotPath(p)
		if err != nil {
			return 0, err
		}
		for _, ix := range ixs {
			t0 := time.Now()
			err := lookupIndexed(ix, segs)
			per = append(per, time.Since(t0))
			if err != nil {
				return 0, fmt.Errorf("lookup %s: %w", p, err)
			}
		}
	}
	return medianDur(per), nil
}

// cacheHits warms an index cache with every unit, then times one hit
// per unit and returns the median hit.
func cacheHits(units [][]byte) time.Duration {
	var total int64
	for _, u := range units {
		total += int64(len(u))
	}
	// Room for every unit and its masks, so nothing is evicted.
	c := jsonski.NewIndexCache(4*total + 1<<20)
	defer c.Purge()
	for _, u := range units {
		if ix := c.Get(u); ix != nil {
			ix.Release()
		}
	}
	per := make([]time.Duration, 0, len(units))
	for _, u := range units {
		t0 := time.Now()
		if ix := c.Get(u); ix != nil {
			ix.Release()
		}
		per = append(per, time.Since(t0))
	}
	return medianDur(per)
}

// setRun is one dataset's query set: one shared pass against one
// pass per path, over the same units.
type setRun struct {
	bytes         int64
	set, separate time.Duration
}

// measureSets times, per dataset, every JSONPath the workload evaluates
// on it as one QuerySet pass against one Count pass per path.
func measureSets(r *runner, ops []*op, reps int) ([]setRun, error) {
	paths := map[string][]string{}
	units := map[string][][]byte{}
	var order []string
	for _, o := range ops {
		if o.kind == opDoc {
			continue
		}
		if _, ok := units[o.dataset]; !ok {
			units[o.dataset] = o.docs
			order = append(order, o.dataset)
		}
		for _, p := range o.paths {
			if !contains(paths[o.dataset], p) {
				paths[o.dataset] = append(paths[o.dataset], p)
			}
		}
	}
	var out []setRun
	for _, ds := range order {
		qs, err := jsonski.CompileSet(paths[ds]...)
		if err != nil {
			return nil, err
		}
		qq := make([]*jsonski.Query, len(paths[ds]))
		for i, p := range paths[ds] {
			if qq[i], err = jsonski.Compile(p); err != nil {
				return nil, err
			}
		}
		sr := setRun{}
		for _, u := range units[ds] {
			sr.bytes += int64(len(u))
		}
		var sets, seps []time.Duration
		for rep := 0; rep < reps; rep++ {
			root := r.spans.start("set "+ds, nil)
			sp := r.spans.start("core.set", root)
			if _, err := qs.RunRecords(units[ds], nil); err != nil {
				return nil, err
			}
			sets = append(sets, sp.end())
			sp = r.spans.start("core.separate", root)
			for _, q := range qq {
				if _, err := q.RunRecords(units[ds], nil); err != nil {
					return nil, err
				}
			}
			seps = append(seps, sp.end())
			root.end()
		}
		sr.set, sr.separate = medianDur(sets), medianDur(seps)
		out = append(out, sr)
	}
	return out, nil
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// checkIdentity asserts the byte accounting of a lazy evaluation:
// every input byte is either scanned or charged to one fast-forward
// group, and the engine saw exactly the op's units.
func (r *runner) checkIdentity(o *op, st jsonski.Stats) {
	var ff, units int64
	for _, v := range st.SkippedBytes {
		ff += v
	}
	for _, d := range o.docs {
		units += int64(len(d))
	}
	switch {
	case st.ScannedBytes()+ff != st.InputBytes:
		r.violation(fmt.Errorf("%s: scanned %d + fast-forwarded %d != input %d", o.id, st.ScannedBytes(), ff, st.InputBytes))
	case o.kind != opMulti && st.InputBytes != units:
		r.violation(fmt.Errorf("%s: engine input %d bytes, units hold %d", o.id, st.InputBytes, units))
	}
}

func medianTimes(ts []layerTimes) layerTimes {
	pick := func(f func(layerTimes) time.Duration) time.Duration {
		ds := make([]time.Duration, len(ts))
		for i, t := range ts {
			ds[i] = f(t)
		}
		return medianDur(ds)
	}
	return layerTimes{
		index:       pick(func(t layerTimes) time.Duration { return t.index }),
		lazy:        pick(func(t layerTimes) time.Duration { return t.lazy }),
		indexed:     pick(func(t layerTimes) time.Duration { return t.indexed }),
		indexedSink: pick(func(t layerTimes) time.Duration { return t.indexedSink }),
		reader:      pick(func(t layerTimes) time.Duration { return t.reader }),
		inproc:      pick(func(t layerTimes) time.Duration { return t.inproc }),
		hit:         pick(func(t layerTimes) time.Duration { return t.hit }),
		nav:         pick(func(t layerTimes) time.Duration { return t.nav }),
	}
}
