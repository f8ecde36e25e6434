package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule. It refuses a percentile that has fewer than
// minTailSamples samples beyond it: such a tail is one or two requests
// wide and reads as noise.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile: no samples")
	}
	beyond := int(math.Floor(float64(n) * (100 - p) / 100))
	if p > 50 && beyond < minTailSamples {
		return 0, fmt.Errorf("percentile: p%g of %d samples has %d beyond it, need %d", p, n, beyond, minTailSamples)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(n)*p/100)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return s[rank], nil
}

// highestPercentile returns the highest of the candidate percentiles that
// xs supports, with its label; (0, "") when not even p75 is supported.
func highestPercentile(xs []float64) (float64, string) {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if v, err := percentile(xs, p); err == nil {
			return v, fmt.Sprintf("p%g", p)
		}
	}
	return 0, ""
}

// median is the plain middle value (mean of the two middles when even); it
// is defined for any non-empty sample and is 0 for an empty one.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// quartiles returns Q1 and Q3 by the method of Python's
// statistics.quantiles(xs, n=4) ("exclusive"), which the acceptance
// procedure uses for run-to-run spread.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // quartile i of 4
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// slope is the least-squares slope of ys against xs (0 with < 2 points).
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	mx, my := mean(xs), mean(ys)
	var sxy, sxx float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
	}
	if sxx == 0 {
		return 0
	}
	return sxy / sxx
}
