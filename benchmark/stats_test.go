package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileRefusesThinTails(t *testing.T) {
	if _, err := percentile(seq(999), 99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(seq(1000), 99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(seq(180), 95); err == nil {
		t.Error("p95 of 180 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("a percentile of nothing must be refused")
	}
	if v, err := percentile(seq(5), 50); err != nil || v != 3 {
		t.Errorf("the median is always defined: got %v, %v", v, err)
	}
	if v, label := highestPercentile(seq(250)); label != "p95" || v != 238 {
		t.Errorf("250 samples support p95 = 238, got %s = %v", label, v)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the acceptance procedure uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{5, 1, 4, 2, 3})
	if math.Abs(q1-1.5) > 1e-12 || math.Abs(q3-4.5) > 1e-12 {
		t.Errorf("quartiles(1..5) = %v, %v; Python gives 1.5, 4.5", q1, q3)
	}
}

func TestSlope(t *testing.T) {
	if s := slope([]float64{0, 1, 2, 3}, []float64{5, 7, 9, 11}); math.Abs(s-2) > 1e-12 {
		t.Errorf("slope = %v, want 2", s)
	}
}
