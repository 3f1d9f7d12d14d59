package main

import (
	"math"
	"testing"
)

// TestQuantileWithFailures: failed requests enter the latency samples
// as +Inf, and a quantile landing on or between them must be +Inf, not
// NaN (which the result line's JSON cannot carry).
func TestQuantileWithFailures(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		in   []float64
		q    float64
		want float64
	}{
		{[]float64{1, 2, 3, inf}, 0.5, 2.5},
		{[]float64{1, 2, inf, inf}, 0.5, inf},    // between a value and a failure
		{[]float64{1, inf, inf, inf}, 0.99, inf}, // between two failures
		{[]float64{1, 2, inf}, 0.5, 2},           // exactly on a value
		{[]float64{1, inf, inf}, 0.5, inf},       // exactly on a failure
		{[]float64{4}, 0.99, 4},
	}
	for _, c := range cases {
		if got := quantile(c.in, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.in, c.q, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to CPython's
// statistics.quantiles(values, n=4), the definition spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 9, 2, 7}, [3]float64{1.5, 5, 8}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1.5, 2.25, 10, 4, 4.5, 6, 7}, [3]float64{2.25, 4.5, 7}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
