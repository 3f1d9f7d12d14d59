package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "type 7" estimator). xs need not be sorted; it
// is not modified. An empty sample yields 0. Failed requests enter as
// +Inf: a quantile that reaches one is +Inf, never the NaN that
// interpolating toward infinity would give.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	switch {
	case lo >= len(s)-1:
		return s[len(s)-1]
	case frac == 0:
		return s[lo]
	case math.IsInf(s[lo+1], 1):
		return math.Inf(1)
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) does (its default
// "exclusive" method), so spreads printed here match the ones a reader
// recomputes from the raw values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) < 2 {
		m := quantile(xs, 0.5)
		return m, m, m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	at := func(i int) float64 {
		// CPython's exclusive method, integer arithmetic included: the
		// 1-based position i*(ld+1)/4, clamped to [1, ld-1] (which
		// extrapolates for tiny samples, as CPython does).
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianDur is the median of ds.
func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}
