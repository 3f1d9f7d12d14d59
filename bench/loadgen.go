package main

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// closedResult is one closed-loop phase: the successful requests, their
// request-body bytes, and every request's latency in milliseconds (+Inf
// for a failed one, which misses every latency limit).
type closedResult struct {
	n, bytes atomic.Int64
	elapsed  time.Duration
	lat      []float64
}

// rate is completed requests per second over the whole phase.
func (c *closedResult) rate() float64 { return float64(c.n.Load()) / c.elapsed.Seconds() }

// mbPerSec is request-body megabytes per second over the whole phase.
func (c *closedResult) mbPerSec() float64 {
	return float64(c.bytes.Load()) / c.elapsed.Seconds() / 1e6
}

// closedLoop keeps conns requests outstanding for d: each connection
// sends its next request as soon as the previous one completes, so a
// slower daemon receives proportionally less load.
func closedLoop(ctx context.Context, c *client, r *runner, seq []*op, conns int, d time.Duration, clients *clientSpans) *closedResult {
	var (
		next     atomic.Int64
		res      = &closedResult{}
		lats     = make([][]float64, conns)
		wg       sync.WaitGroup
		start    = time.Now()
		deadline = start.Add(d)
	)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) && ctx.Err() == nil {
				o := seq[int(next.Add(1)-1)%len(seq)]
				t0 := time.Now()
				ok := r.send(ctx, c, o, &buf, clients)
				lat := ms(time.Since(t0))
				if ok {
					res.n.Add(1)
					res.bytes.Add(o.bytes())
				} else {
					lat = math.Inf(1)
				}
				lats[w] = append(lats[w], lat)
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	for _, l := range lats {
		res.lat = append(res.lat, l...)
	}
	return res
}

// poissonSchedule returns the due times, as offsets from the start of
// the phase, of Poisson arrivals at rate per second over d. The seed
// fixes the schedule, so every run offers the same load.
func poissonSchedule(rate float64, d time.Duration, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return due
		}
		due = append(due, at)
	}
}

// openResult is one open-loop phase. Times are offsets from the start
// of the phase; request i was due at due[i].
type openResult struct {
	due, sent, done []time.Duration
	backlogMax      int
}

// openLoop sends request i at its due time on the first of conns free
// connections, whether or not earlier requests have completed. When
// every connection is busy, requests wait in the generator and their
// latency, timed from the due time, includes that wait: a stall is
// charged to every request queued behind it instead of being omitted.
func openLoop(ctx context.Context, due []time.Duration, conns int, send func(i int)) openResult {
	n := len(due)
	res := openResult{
		due:  due,
		sent: make([]time.Duration, n),
		done: make([]time.Duration, n),
	}
	var (
		next    atomic.Int64
		backlog atomic.Int64
		wg      sync.WaitGroup
		start   = time.Now()
	)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				if wait := due[i] - time.Since(start); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
						return
					}
				}
				s := time.Since(start)
				// Requests already due but not yet claimed by a
				// connection: the generator's queue at this instant.
				waiting := int64(sort.Search(n, func(k int) bool { return due[k] > s }) - i - 1)
				for {
					cur := backlog.Load()
					if waiting <= cur || backlog.CompareAndSwap(cur, waiting) {
						break
					}
				}
				res.sent[i] = s
				send(i)
				res.done[i] = time.Since(start)
			}
		}()
	}
	wg.Wait()
	res.backlogMax = int(backlog.Load())
	return res
}

// serviceMs is the time from send to completion, the client-side view
// of what the daemon took.
func (o openResult) serviceMs() []float64 {
	out := make([]float64, len(o.due))
	for i := range o.due {
		out[i] = ms(o.done[i] - o.sent[i])
	}
	return out
}

// lateMs is how far behind schedule the generator sent each request.
func (o openResult) lateMs() []float64 {
	out := make([]float64, len(o.due))
	for i := range o.due {
		out[i] = ms(o.sent[i] - o.due[i])
	}
	return out
}

// finite replaces an infinite latency quantile (one that lands on failed
// requests) with the whole phase length, the largest latency a run can
// observe, so the result stays a number.
func finite(v float64, phase time.Duration) float64 {
	if math.IsInf(v, 1) {
		return ms(phase)
	}
	return v
}
