package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"time"
)

// measureTraced is the traced run: it replays the workload's inputs to
// produce every per-layer metric, recording the bench's own spans
// around each layer call. Its phases, as shares of the run:
//
//  1. in-process layers (35%), then one QuerySet pass per dataset;
//  2. the front end alone (15%): every op serially through the CLI, or
//     through an untraced jsonskid;
//  3. tracing cost (12%): closed-loop bursts alternating between the
//     untraced daemon and one sampling 10% of requests to a trace file;
//  4. the traced daemon under the open loop (30%), with /metrics polled
//     at 10 Hz; its spans are stitched under the bench's client spans.
//
// CLI workloads take part in 3 and 4 too, their operations sent to
// jsonskid as request bodies, so every layer is measured on every
// workload's inputs.
func measureTraced(ctx context.Context, r *runner, ops []*op) error {
	total := r.cfg.duration()
	runs, err := measureLayers(ctx, r, ops, total*35/100)
	if err != nil {
		return err
	}
	sets, err := measureSets(r, ops, 3)
	if err != nil {
		return err
	}

	plain, err := startDaemon(ctx, r.jsonskid())
	if err != nil {
		return err
	}
	defer plain.stop()
	pc := newClient(plain.base)
	defer pc.close()
	r.serialPass(ctx, pc, ops)

	e2e := r.frontendReplay(ctx, pc, ops, total*15/100)
	r.layerMetrics(runs, sets, e2e)

	spanFile := filepath.Join(r.cfg.work, "jsonskid-spans.ndjson")
	traced, err := startDaemon(ctx, r.jsonskid(), "-trace-sample", "0.1", "-trace-file", spanFile)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			traced.stop()
		}
	}()
	tc := newClient(traced.base)
	defer tc.close()
	r.serialPass(ctx, tc, ops)

	seq := requestMix(ops, 1<<16, r.cfg.seed)
	clients := &clientSpans{m: map[string]*span{}}
	var plainRPS, tracedRPS []float64
	burst := total * 2 / 100
	for k := 0; k < 3; k++ {
		order := []*client{pc, tc}
		if k%2 == 1 {
			order = []*client{tc, pc}
		}
		for _, c := range order {
			if c == pc {
				plainRPS = append(plainRPS, closedLoop(ctx, c, r, seq, 2, burst, nil).rate())
			} else {
				tracedRPS = append(tracedRPS, closedLoop(ctx, c, r, seq, 2, burst, clients).rate())
			}
		}
	}
	r.set("telemetry.overhead_pct", (ratio(median(plainRPS), median(tracedRPS))-1)*100)

	mc := &http.Client{Transport: &http.Transport{Proxy: nil}, Timeout: 5 * time.Second}
	defer mc.CloseIdleConnections()
	before, err := scrapeDaemon(mc, traced)
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	peak := make(chan int, 1)
	go func() { peak <- pollQueue(mc, traced, stop) }()
	open := r.openPhase(ctx, tc, seq, total*30/100, clients)
	close(stop)
	queueMax := <-peak
	after, err := scrapeDaemon(mc, traced)
	if err != nil {
		return err
	}
	traced.stop()
	stopped = true

	handler := histDiff(after.request, before.request)
	records := histDiff(after.recrd, before.recrd)
	handlerP50 := histQuantile(handler, 0.50) * 1e3
	r.set("server.handler_p50_ms", handlerP50)
	r.set("server.handler_p99_ms", histQuantile(handler, 0.99)*1e3)
	r.set("server.record_p50_us", histQuantile(records, 0.50)*1e6)
	r.set("server.http_overhead_ms", quantile(open.serviceMs(), 0.50)-handlerP50)
	hits := after.m.IndexCache.Hits - before.m.IndexCache.Hits
	misses := after.m.IndexCache.Misses - before.m.IndexCache.Misses
	r.set("server.index_cache_hit_rate", ratio(float64(hits), float64(hits+misses)))
	r.set("server.queue_depth_max", float64(queueMax))
	t := after.m.Trace
	r.set("telemetry.dropped_frac", ratio(float64(t.SpansDropped), float64(t.SpansDropped+t.SpansExported)))
	r.set("loadgen.late_p99_ms", quantile(open.lateMs(), 0.99))
	r.set("loadgen.backlog_max", float64(open.backlogMax))

	traces, err := readServerSpans(spanFile)
	if err != nil {
		return err
	}
	shares, self, trees := serverShares(r.spans, traces, clients.m)
	if trees == 0 {
		// Only a very short run can sample no request at all.
		r.logf("no complete jsonskid trace among %d sampled traces; span shares read 0", len(traces))
	}
	r.set("server.engine_share", shares["engine.run"])
	r.set("server.index_lookup_share", shares["index.lookup"])
	r.set("server.sink_flush_share", shares["sink.flush"])
	r.set("server.root_self_share", self)
	return nil
}

// frontendReplay runs every op serially through the workload's front
// end, at least three times and while the budget lasts, and returns
// each op's median latency.
func (r *runner) frontendReplay(ctx context.Context, c *client, ops []*op, budget time.Duration) []time.Duration {
	per := make([][]time.Duration, len(ops))
	start := time.Now()
	var buf bytes.Buffer
	for rep := 0; ; rep++ {
		for i, o := range ops {
			root := r.spans.start("frontend "+o.id, nil)
			if r.w.http {
				r.send(ctx, c, o, &buf, nil)
			} else {
				res := runCLI(ctx, r.jsonski(), o, false)
				r.count(res.ok, res.err)
			}
			per[i] = append(per[i], root.end())
		}
		perRep := time.Since(start) / time.Duration(rep+1)
		if rep+1 >= 3 && time.Since(start)+perRep > budget || ctx.Err() != nil {
			break
		}
	}
	out := make([]time.Duration, len(ops))
	for i := range per {
		out[i] = medianDur(per[i])
	}
	return out
}

// layerMetrics derives the in-process and budget metrics from one
// suite pass: the sum over distinct ops of each op's median.
func (r *runner) layerMetrics(runs []layerRun, sets []setRun, e2e []time.Duration) {
	var (
		bytesAll, readerBytes, units, matches, input, scanned int64
		ff                                                    [5]int64
		index, lazy, indexed, sinkExtra, reader               time.Duration
		front, inproc, classify, model                        time.Duration
		hits, navs                                            []time.Duration
	)
	for i, run := range runs {
		o, t := run.o, run.times
		for _, d := range o.docs {
			bytesAll += int64(len(d))
		}
		units += int64(len(o.docs))
		index += t.index
		lazy += t.lazy
		indexed += t.indexed
		if o.kind != opDoc {
			reader += t.reader
			readerBytes += int64(len(o.input))
			sinkExtra += t.indexedSink - t.indexed
			matches += run.stats.Matches
		}
		input += run.stats.InputBytes
		scanned += run.stats.ScannedBytes()
		for g, v := range run.stats.SkippedBytes {
			ff[g] += v
		}
		hits = append(hits, t.hit)
		navs = append(navs, t.nav)

		// The budget: what the user waited for, split into classifying,
		// evaluating over the index, emitting, and the front end's own
		// cost. An op the front end serves from its index cache does no
		// classification.
		opClassify := t.index
		if run.cached {
			opClassify = 0
		}
		overhead := e2e[i] - t.inproc
		r.budget = append(r.budget, budgetRow{
			Op:         o.id,
			E2EMs:      ms(e2e[i]),
			ClassifyMs: ms(opClassify),
			EngineMs:   ms(t.indexed),
			EmitMs:     ms(t.indexedSink - t.indexed),
			FrontMs:    ms(overhead),
		})
		front += e2e[i]
		inproc += t.inproc
		classify += opClassify
		model += opClassify + t.indexedSink + overhead
	}
	var ffAll int64
	for _, v := range ff {
		ffAll += v
	}
	r.set("stream.index_mb_s", float64(bytesAll)/index.Seconds()/1e6)
	r.set("stream.classify_share", float64(lazy-indexed)/float64(lazy))
	r.set("fastforward.skip_ratio", ratio(float64(ffAll), float64(input)))
	for g, v := range ff {
		r.set(fmt.Sprintf("fastforward.g%d_ratio", g+1), ratio(float64(v), float64(input)))
	}
	r.set("fastforward.scanned_mb", float64(scanned)/1e6)
	r.set("core.lazy_mb_s", float64(bytesAll)/lazy.Seconds()/1e6)
	r.set("core.indexed_mb_s", float64(bytesAll)/indexed.Seconds()/1e6)
	r.set("core.records_per_s", float64(units)/lazy.Seconds())
	var setBytes int64
	var set, separate time.Duration
	for _, s := range sets {
		setBytes += s.bytes
		set += s.set
		separate += s.separate
	}
	r.set("core.set_mb_s", float64(setBytes)/set.Seconds()/1e6)
	r.set("core.set_vs_separate", float64(set)/float64(separate))
	r.set("core.nav_lookup_ns", float64(medianDur(navs)))
	r.set("sink.emit_ns_per_match", ratio(float64(sinkExtra), float64(matches)))
	r.set("reader.mb_s", float64(readerBytes)/reader.Seconds()/1e6)
	r.set("indexcache.hit_us", float64(medianDur(hits))/1e3)
	r.set("frontend.overhead_ms", ms(front-inproc)/float64(len(runs)))
	r.set("budget.classify_pct", 100*float64(classify)/float64(front))
	r.set("budget.residual_pct", 100*math.Abs(float64(front-model))/float64(front))
}

// budgetRow is one op's entry in the traced run's budget table: the
// front end's median latency and its split into classification,
// evaluation over the index, emission, and the front end's own cost.
type budgetRow struct {
	Op         string  `json:"op"`
	E2EMs      float64 `json:"e2e_ms"`
	ClassifyMs float64 `json:"classify_ms"`
	EngineMs   float64 `json:"engine_ms"`
	EmitMs     float64 `json:"emit_ms"`
	FrontMs    float64 `json:"front_end_ms"`
}
