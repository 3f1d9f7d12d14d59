package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11},
		{1 << 60, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestBucketBoundsCoverObservations(t *testing.T) {
	// Every observation must land in a bucket whose bounds contain it.
	for _, ns := range []int64{1, 2, 7, 100, 1e6, 5e9} {
		i := bucketOf(ns)
		hi := BucketUpperNanos(i)
		var lo int64
		if i > 0 {
			lo = BucketUpperNanos(i - 1)
		}
		if ns < lo || ns >= hi {
			t.Errorf("ns=%d landed in bucket %d with bounds [%d,%d)", ns, i, lo, hi)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1000 observations: 1µs, 2µs, ..., 1000µs.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	if got, want := s.Max(), 1000*time.Microsecond; got != want {
		t.Errorf("max = %v, want %v", got, want)
	}
	if got, want := s.Mean(), 500500*time.Nanosecond; got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
	// Log-2 buckets bound the relative error at 2x; the interpolated
	// estimates are much tighter. Assert within a factor of two.
	checks := []struct {
		q    float64
		want time.Duration
	}{{0.5, 500 * time.Microsecond}, {0.9, 900 * time.Microsecond}, {0.99, 990 * time.Microsecond}}
	for _, c := range checks {
		got := s.Quantile(c.q)
		if got < c.want/2 || got > 2*c.want {
			t.Errorf("quantile(%v) = %v, want within 2x of %v", c.q, got, c.want)
		}
	}
	if got := s.Quantile(1); got != 1000*time.Microsecond {
		t.Errorf("quantile(1) = %v, want exact max %v", got, 1000*time.Microsecond)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var s HistSnapshot
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Max() != 0 {
		t.Errorf("empty snapshot should derive zeros, got q50=%v mean=%v max=%v",
			s.Quantile(0.5), s.Mean(), s.Max())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*per+i) * time.Nanosecond)
				if i%64 == 0 {
					// Interleave snapshots with writes; derived values
					// must stay in range even on torn snapshots.
					s := h.Snapshot()
					if q := s.Quantile(0.5); q < 0 {
						t.Errorf("negative quantile %v", q)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var bsum int64
	for _, c := range s.Buckets {
		bsum += c
	}
	if bsum != s.Count {
		t.Fatalf("bucket sum %d != count %d after quiescence", bsum, s.Count)
	}
}
