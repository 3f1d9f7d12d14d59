package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// measureHTTP runs an HTTP workload against a fresh jsonskid:
//
//  1. set-up, setupRuns times on a fresh daemon each: exec, /readyz 200,
//     and one serial pass over every distinct request (compiling each
//     query and building each index the workload needs);
//  2. an untimed closed-loop warm-up (10% of the run);
//  3. a closed loop with two connections (90%): throughput, and the
//     median and p90 of every request's latency (at 25 s over 20000
//     requests, so p90 has some 2000 beyond it).
//
// Latency comes from the closed loop, not an open one. On the two-vCPU
// reference VM, requests arriving at an idle daemon wait for the
// hypervisor to wake a halted vCPU, and up to about 1% of CPU time is
// stolen in slices of ~10 ms. Over ten seeds the open loop's p90
// spread 50-63% and its p99 74-133%; the closed loop keeps both vCPUs
// busy, and its p50 and p90 spread 10-14% (bench/README.md). Its p99
// still sits among the stolen slices and spread up to 40%, hence p90.
// The traced run keeps the open loop, timed from due times, for the
// generator's lateness and the daemon's spans.
//
// Memory is the daemon's resident set sampled through phase 3.
func measureHTTP(ctx context.Context, r *runner, ops []*op) error {
	var (
		setups []float64
		d      *daemon
	)
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(ctx, r.jsonskid()); err != nil {
			return err
		}
		c := newClient(d.base)
		r.serialPass(ctx, c, ops)
		c.close()
		setups = append(setups, time.Since(t0).Seconds())
	}
	c := newClient(d.base)
	defer c.close()
	seq := requestMix(ops, 1<<16, r.cfg.seed)
	total := r.cfg.duration()
	closedLoop(ctx, c, r, seq, 2, total/10, nil)
	stop := make(chan struct{})
	rss := make(chan float64, 1)
	go func() { rss <- sampleRSS(d, stop) }()
	closed := closedLoop(ctx, c, r, seq, 2, total*9/10, nil)
	close(stop)
	rssMiB := <-rss
	if closed.n.Load() == 0 {
		return fmt.Errorf("no request completed in the closed loop")
	}
	r.set("mb_s", closed.mbPerSec())
	r.set("ops_s", closed.rate())
	r.set("p50_ms", finite(quantile(closed.lat, 0.50), closed.elapsed))
	r.set("p90_ms", finite(quantile(closed.lat, 0.90), closed.elapsed))
	r.set("rss_mb", rssMiB)
	r.set("setup_s", median(setups))
	return nil
}

// sampleRSS reads the daemon's resident set at 10 Hz until stop closes
// and returns the median reading: the memory the daemon holds under
// load, not the instant a garbage collection happened to peak.
func sampleRSS(d *daemon, stop <-chan struct{}) float64 {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	var samples []float64
	for {
		if v, err := d.rssMiB(); err == nil {
			samples = append(samples, v)
		}
		select {
		case <-stop:
			return median(samples)
		case <-t.C:
		}
	}
}

// serialPass sends every distinct op once over one connection.
func (r *runner) serialPass(ctx context.Context, c *client, ops []*op) {
	var buf bytes.Buffer
	for _, o := range ops {
		r.send(ctx, c, o, &buf, nil)
	}
}

// openPhase drives an open loop of seq at the workload's rate for d.
// When clients is non-nil, each request is recorded as a bench client
// span keyed by the trace id the daemon returns in traceparent.
func (r *runner) openPhase(ctx context.Context, c *client, seq []*op, d time.Duration, clients *clientSpans) openResult {
	due := poissonSchedule(r.w.rate, d, r.cfg.seed)
	bufs := sync.Pool{New: func() any { return new(bytes.Buffer) }}
	return openLoop(ctx, due, 2, func(i int) {
		buf := bufs.Get().(*bytes.Buffer)
		defer bufs.Put(buf)
		r.send(ctx, c, seq[i%len(seq)], buf, clients)
	})
}

// send performs one request and counts its outcome. When clients is
// non-nil the request is also a bench client span, keyed by the trace
// id the daemon returns in traceparent.
func (r *runner) send(ctx context.Context, c *client, o *op, buf *bytes.Buffer, clients *clientSpans) bool {
	var sp *span
	if clients != nil {
		sp = r.spans.start("client "+o.id, nil)
	}
	rep := c.do(ctx, o, buf)
	if sp != nil {
		sp.end()
		clients.add(traceIDOf(rep.traceparent), sp)
	}
	r.count(rep.ok, rep.err)
	return rep.ok
}

// clientSpans maps a daemon trace id to the bench span that sent the
// request.
type clientSpans struct {
	mu sync.Mutex
	m  map[string]*span
}

func (c *clientSpans) add(traceID string, sp *span) {
	if traceID == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sp.Trace = traceID
	c.m[traceID] = sp
}

// promHist reads one histogram family from a Prometheus exposition,
// summed over its label sets, as per-bucket counts keyed by the
// bucket's upper bound in seconds (+Inf excluded).
func promHist(text, family string) map[float64]int64 {
	type series struct {
		les  []float64
		cums []int64
	}
	all := map[string]*series{}
	sc := bufio.NewScanner(strings.NewReader(text))
	prefix := family + "_bucket{"
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		labels, val, ok := strings.Cut(line[len(prefix):], "} ")
		if !ok {
			continue
		}
		var key, le string
		for _, kv := range strings.Split(labels, ",") {
			k, v, _ := strings.Cut(kv, "=")
			v = strings.Trim(v, `"`)
			if k == "le" {
				le = v
			} else {
				key += kv
			}
		}
		if le == "+Inf" {
			continue
		}
		bound, err1 := strconv.ParseFloat(le, 64)
		n, err2 := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err1 != nil || err2 != nil {
			continue
		}
		s := all[key]
		if s == nil {
			s = &series{}
			all[key] = s
		}
		s.les = append(s.les, bound)
		s.cums = append(s.cums, n)
	}
	out := map[float64]int64{}
	for _, s := range all {
		var prev int64
		for i, le := range s.les {
			out[le] += s.cums[i] - prev
			prev = s.cums[i]
		}
	}
	return out
}

// histDiff subtracts an earlier scrape from a later one.
func histDiff(after, before map[float64]int64) map[float64]int64 {
	out := map[float64]int64{}
	for le, n := range after {
		if d := n - before[le]; d > 0 {
			out[le] = d
		}
	}
	return out
}

// histQuantile interpolates the q-quantile, in seconds, of log-2
// buckets: bucket le holds values in [le/2, le).
func histQuantile(h map[float64]int64, q float64) float64 {
	les := make([]float64, 0, len(h))
	var total int64
	for le, n := range h {
		les = append(les, le)
		total += n
	}
	if total == 0 {
		return 0
	}
	sort.Float64s(les)
	rank := q * float64(total)
	var cum float64
	for _, le := range les {
		n := float64(h[le])
		if cum+n >= rank {
			lo := le / 2
			return lo + (le-lo)*(rank-cum)/n
		}
		cum += n
	}
	return les[len(les)-1]
}

func getText(c *http.Client, u string) (string, error) {
	resp, err := c.Get(u)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	return string(b), err
}

// scrape is one reading of a daemon's /metrics and /metrics/prom.
type scrape struct {
	m              metricsJSON
	request, recrd map[float64]int64
}

func scrapeDaemon(c *http.Client, d *daemon) (scrape, error) {
	var s scrape
	if err := getJSON(c, d.base+"/metrics", &s.m); err != nil {
		return s, err
	}
	text, err := getText(c, d.base+"/metrics/prom")
	if err != nil {
		return s, err
	}
	s.request = promHist(text, "jsonski_request_duration_seconds")
	s.recrd = promHist(text, "jsonski_record_duration_seconds")
	return s, nil
}

// pollQueue samples the daemon's worker queue depth at 10 Hz until
// stop is closed, and returns the largest depth seen.
func pollQueue(c *http.Client, d *daemon, stop <-chan struct{}) int {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	peak := 0
	for {
		select {
		case <-stop:
			return peak
		case <-t.C:
			var m metricsJSON
			if getJSON(c, d.base+"/metrics", &m) == nil {
				peak = max(peak, m.Workers.QueueDepth)
			}
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a/b) {
		return 0
	}
	return a / b
}
