// Package stats implements the statistical machinery used to aggregate and
// report experiment results, matching the procedures described in the paper:
// medians with 95% confidence intervals, the paper's interquartile outlier
// filter, and ordinary least squares regression with a t-test on the slope
// (used for Figure 14). Everything is implemented from the standard library
// alone, including the regularized incomplete beta function needed for the
// Student t distribution.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N        int
	Mean     float64
	Median   float64
	MedianLo float64 // lower bound of the 95% CI of the median
	MedianHi float64 // upper bound of the 95% CI of the median
}

// Summarize computes descriptive statistics of xs. It returns a zero Summary
// if xs is empty.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)

	var sum float64
	for _, v := range s {
		sum += v
	}
	lo, hi := medianCISorted(s, 0.95)
	return Summary{
		N:        len(s),
		Mean:     sum / float64(len(s)),
		Median:   quantileSorted(s, 0.5),
		MedianLo: lo,
		MedianHi: hi,
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the R default).
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	i := int(math.Floor(pos))
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i]*(1-frac) + s[i+1]*frac
}

// FilterOutliers applies the paper's outlier rule (Section III-A, footnote):
// with Δ the distance between the first and third quartiles, any point
// farther than 1.5Δ from the median is discarded. It returns the kept points
// and the number removed.
func FilterOutliers(xs []float64) (kept []float64, removed int) {
	if len(xs) < 4 {
		return append([]float64(nil), xs...), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := quantileSorted(s, 0.5)
	delta := quantileSorted(s, 0.75) - quantileSorted(s, 0.25)
	lo, hi := med-1.5*delta, med+1.5*delta
	kept = make([]float64, 0, len(xs))
	for _, v := range xs {
		if v < lo || v > hi {
			removed++
			continue
		}
		kept = append(kept, v)
	}
	// Degenerate guard: if Δ==0 every point equal to the median is kept and
	// the rule above already handles it; if everything was removed (cannot
	// happen since the median itself is always within bounds) fall back.
	if len(kept) == 0 {
		return append([]float64(nil), xs...), 0
	}
	return kept, removed
}

// medianCISorted returns a distribution-free confidence interval for the
// median based on binomial order statistics. s must be sorted.
func medianCISorted(s []float64, conf float64) (lo, hi float64) {
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	// Find the symmetric pair of order statistics (k, n-1-k) with coverage
	// >= conf: coverage = 1 - 2*BinomCDF(k-1; n, 1/2) for the interval
	// (x_(k), x_(n+1-k)) in 1-based terms.
	alpha := (1 - conf) / 2
	k := 0
	cdf := math.Pow(0.5, float64(n)) // P(X <= 0), X ~ Binom(n, 1/2)
	cum := cdf
	for k+1 <= n/2 {
		next := cum + binomPMF(n, k+1)
		if next > alpha {
			break
		}
		cum = next
		k++
	}
	loIdx := k
	hiIdx := n - 1 - k
	if loIdx > hiIdx {
		loIdx, hiIdx = hiIdx, loIdx
	}
	return s[loIdx], s[hiIdx]
}

func binomPMF(n, k int) float64 {
	lg, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return math.Exp(lg - lk - lnk - float64(n)*math.Ln2)
}

// PercentChange returns 100*(a-b)/b, the paper's convention where b is the
// BEB (baseline) value. Returns NaN when b == 0.
func PercentChange(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return 100 * (a - b) / b
}

// ErrShortSample is returned by procedures that need more data points.
var ErrShortSample = errors.New("stats: sample too small")
