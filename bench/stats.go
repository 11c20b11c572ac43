package main

import (
	"math"
	"sort"
)

// tailQuantile is the highest percentile (at most the 99th) that still has
// at least ten samples beyond it: 1000 samples give p99, 500 give p98. A
// tail reported from fewer samples would be one or two outliers, not a
// percentile. It never goes below the median.
func tailQuantile(n int) float64 {
	if n <= 0 {
		return 0.5
	}
	q := math.Floor(100*float64(n-10)/float64(n)) / 100
	return math.Max(0.5, math.Min(0.99, q))
}

// percentile returns the nearest-rank q-quantile of vals (which it sorts
// in place). +Inf entries — failed requests — rank above every success.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	i := int(math.Ceil(q*float64(len(vals)))) - 1
	return vals[max(0, min(i, len(vals)-1))]
}

// median returns the middle of vals (mean of the two middles for an even
// count), sorting vals in place.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	m := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[m]
	}
	return (vals[m-1] + vals[m]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(vals, n=4) computes them (the "exclusive" method),
// so the spreads compare reports match what other tools compute from the
// same runs.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	// Integer rescaling and clamping exactly as CPython does it, including
	// its extrapolation for tiny samples.
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// sum adds vals in slice order.
func sum(vals []float64) float64 {
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t
}

// mean is sum/len, 0 for no values.
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return sum(vals) / float64(len(vals))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
