// Package telemetry is the daemon's dependency-free observability
// toolkit: lock-free log-bucketed latency histograms, a bounded
// fast-forward trace log for explain mode, a Prometheus text-exposition
// writer, build-info introspection, and request spans with their
// tracer. Everything here is standard library only, matching the
// module's zero-dependency go.mod, and nothing here imports net/http:
// the library, and so the jsonski CLI, links this package, while the
// span exporter that POSTs to a collector lives in internal/traceexport.
package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of a Histogram. Bucket i holds
// observations whose nanosecond value has bit length i, i.e. durations
// in [2^(i-1), 2^i) ns; 44 buckets reach 2^43 ns ≈ 2.4 h, far beyond
// any request this daemon serves. Log-2 bucketing bounds the relative
// quantile error at 2× in the worst case (and far less after the linear
// interpolation Quantile applies), which is the classic trade for
// recording with two atomic adds and no locks.
const NumBuckets = 44

// Histogram is a lock-free log-bucketed latency histogram. Observe may
// be called from any number of goroutines; Snapshot may be taken at any
// time. Counters are individually atomic: a snapshot racing an Observe
// can be torn across buckets — fine for metrics — while totals read
// after all writers finish are exact.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
	buckets [NumBuckets]atomic.Int64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	i := bits.Len64(uint64(ns))
	if i >= NumBuckets {
		return NumBuckets - 1
	}
	return i
}

// BucketUpperNanos returns the exclusive upper bound of bucket i in
// nanoseconds (the Prometheus `le` boundary, modulo unit conversion).
func BucketUpperNanos(i int) int64 {
	if i < 0 {
		return 0
	}
	if i >= NumBuckets-1 {
		// The last bucket is a catch-all.
		return int64(1) << 62
	}
	return int64(1) << uint(i)
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[bucketOf(ns)].Add(1)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Snapshot returns a point-in-time copy of the histogram's counters.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	// Buckets before count: a concurrent Observe bumps count before its
	// bucket, so reading in the opposite order keeps Count >= sum of
	// buckets and quantile ranks in range.
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.MaxNanos = h.max.Load()
	s.SumNanos = h.sum.Load()
	s.Count = h.count.Load()
	return s
}

// HistSnapshot is an immutable copy of a Histogram, from which quantiles
// and exposition formats are derived. All derived values (p50, mean,
// bucket sums) must be computed from one snapshot, never from a second
// read of the live histogram, so ratios can never mix torn pairs.
type HistSnapshot struct {
	Count    int64
	SumNanos int64
	MaxNanos int64
	Buckets  [NumBuckets]int64
}

// Quantile estimates the q-th quantile (0 < q <= 1) by rank-walking the
// buckets and interpolating linearly inside the target bucket. Returns 0
// when the histogram is empty. The estimate is clamped to the observed
// maximum, which also makes Quantile(1) exact.
func (s *HistSnapshot) Quantile(q float64) time.Duration {
	// Rank against the bucket sum, not Count: a snapshot racing writers
	// can have Count ahead of the buckets it managed to copy.
	var total int64
	for _, c := range s.Buckets {
		total += c
	}
	if total == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo := int64(0)
			if i > 0 {
				lo = int64(1) << uint(i-1)
			}
			hi := BucketUpperNanos(i)
			// Linear interpolation of the rank within [lo, hi).
			est := lo + (hi-lo)*(rank-cum)/c
			if s.MaxNanos > 0 && est > s.MaxNanos {
				est = s.MaxNanos
			}
			return time.Duration(est)
		}
		cum += c
	}
	return time.Duration(s.MaxNanos)
}

// Mean returns the arithmetic mean of all observations, 0 when empty.
func (s *HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNanos / s.Count)
}

// Max returns the largest observation.
func (s *HistSnapshot) Max() time.Duration { return time.Duration(s.MaxNanos) }
