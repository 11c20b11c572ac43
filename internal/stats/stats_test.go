package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (tol %v)", what, got, want, tol)
	}
}

// normFloat64 returns a standard normal variate drawn from g by the polar
// (Marsaglia) method.
func normFloat64(g *rng.Source) float64 {
	for {
		u := 2*g.Float64() - 1
		v := 2*g.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

func TestMedianOdd(t *testing.T) {
	approx(t, Quantile([]float64{3, 1, 2}, 0.5), 2, 0, "median odd")
}

func TestMedianEven(t *testing.T) {
	approx(t, Quantile([]float64{4, 1, 3, 2}, 0.5), 2.5, 1e-12, "median even")
}

func TestMedianEmpty(t *testing.T) {
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("median of empty sample should be NaN")
	}
}

func TestMeanSimple(t *testing.T) {
	approx(t, Summarize([]float64{1, 2, 3, 4}).Mean, 2.5, 1e-12, "mean")
}

func TestQuantileEndpoints(t *testing.T) {
	xs := []float64{5, 1, 9, 3}
	approx(t, Quantile(xs, 0), 1, 0, "q0")
	approx(t, Quantile(xs, 1), 9, 0, "q1")
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	approx(t, Quantile(xs, 0.25), 2.5, 1e-12, "q.25 interpolated")
}

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	approx(t, s.Mean, 5, 1e-12, "mean")
	approx(t, s.Median, 4.5, 1e-12, "median")
	if s.N != 8 {
		t.Errorf("N = %d", s.N)
	}
}

func TestSummarizeMedianWithinMinMax(t *testing.T) {
	r := rng.New(3)
	err := quick.Check(func(seed uint32, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		g := r.Derive(string(rune(seed)))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = normFloat64(g) * 100
		}
		s := Summarize(xs)
		return s.Median >= slices.Min(xs) && s.Median <= slices.Max(xs) &&
			s.MedianLo <= s.Median && s.Median <= s.MedianHi
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMedianCICoversTrueMedian(t *testing.T) {
	// For samples from a continuous distribution with median 0, the 95%
	// order-statistic interval should contain 0 about 95% of the time.
	r := rng.New(77)
	covered := 0
	const reps = 400
	for rep := 0; rep < reps; rep++ {
		xs := make([]float64, 31)
		for i := range xs {
			xs[i] = normFloat64(r)
		}
		s := Summarize(xs)
		if s.MedianLo <= 0 && 0 <= s.MedianHi {
			covered++
		}
	}
	rate := float64(covered) / reps
	if rate < 0.90 || rate > 1.0 {
		t.Fatalf("median CI coverage %v, want >= 0.90", rate)
	}
}

func TestFilterOutliersKeepsCleanData(t *testing.T) {
	xs := []float64{10, 11, 12, 13, 14}
	kept, removed := FilterOutliers(xs)
	if removed != 0 || len(kept) != len(xs) {
		t.Fatalf("clean data filtered: kept %d removed %d", len(kept), removed)
	}
}

func TestFilterOutliersRemovesExtremePoint(t *testing.T) {
	xs := []float64{10, 11, 12, 13, 14, 1000}
	kept, removed := FilterOutliers(xs)
	if removed != 1 {
		t.Fatalf("removed %d, want 1", removed)
	}
	for _, v := range kept {
		if v == 1000 {
			t.Fatal("outlier survived the filter")
		}
	}
}

func TestFilterOutliersNeverRemovesMedian(t *testing.T) {
	r := rng.New(5)
	err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%40) + 4
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = normFloat64(r) * 50
		}
		med := Quantile(xs, 0.5)
		kept, _ := FilterOutliers(xs)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range kept {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return len(kept) > 0 && lo <= med && med <= hi
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestFilterOutliersShortSample(t *testing.T) {
	xs := []float64{1, 2, 3}
	kept, removed := FilterOutliers(xs)
	if removed != 0 || len(kept) != 3 {
		t.Fatal("short samples must pass through unfiltered")
	}
}

func TestFilterOutliersConstantSample(t *testing.T) {
	xs := []float64{5, 5, 5, 5, 5, 5}
	kept, removed := FilterOutliers(xs)
	if removed != 0 || len(kept) != 6 {
		t.Fatalf("constant sample mangled: kept %d removed %d", len(kept), removed)
	}
}

func TestPercentChange(t *testing.T) {
	approx(t, PercentChange(150, 100), 50, 1e-12, "percent increase")
	approx(t, PercentChange(50, 100), -50, 1e-12, "percent decrease")
	if !math.IsNaN(PercentChange(1, 0)) {
		t.Fatal("percent change with zero baseline should be NaN")
	}
}

func TestLinearFitExactLine(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{3, 5, 7, 9, 11} // y = 1 + 2x
	reg, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, reg.Slope, 2, 1e-10, "slope")
	approx(t, reg.R2, 1, 1e-10, "r2")
	if reg.PValue > 1e-9 {
		t.Errorf("exact line p-value %v, want ~0", reg.PValue)
	}
}

func TestLinearFitNoisyLineSignificant(t *testing.T) {
	r := rng.New(21)
	var x, y []float64
	for i := 0; i < 100; i++ {
		xi := float64(i)
		x = append(x, xi)
		y = append(y, 7*xi+50+normFloat64(r)*20)
	}
	reg, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, reg.Slope, 7, 0.5, "noisy slope")
	if reg.PValue > 0.001 {
		t.Errorf("p-value %v, want < 0.001", reg.PValue)
	}
}

func TestLinearFitPureNoiseInsignificant(t *testing.T) {
	r := rng.New(22)
	var x, y []float64
	for i := 0; i < 60; i++ {
		x = append(x, float64(i))
		y = append(y, normFloat64(r))
	}
	reg, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if reg.PValue < 0.001 {
		t.Errorf("pure noise came back significant: p=%v slope=%v", reg.PValue, reg.Slope)
	}
}

func TestLinearFitShortSample(t *testing.T) {
	if _, err := LinearFit([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for 2-point fit")
	}
	if _, err := LinearFit([]float64{1, 2, 3}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for mismatched lengths")
	}
}

func TestLinearFitConstantX(t *testing.T) {
	if _, err := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected error when x has no variance")
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0, 0.1, 0.5, 0.9, 1} {
		approx(t, RegIncBeta(1, 1, x), x, 1e-10, "I_x(1,1)")
	}
	// I_{1/2}(a,a) = 1/2 by symmetry.
	for _, a := range []float64{0.5, 1, 2, 5, 10} {
		approx(t, RegIncBeta(a, a, 0.5), 0.5, 1e-10, "I_.5(a,a)")
	}
	// I_x(2,2) = 3x^2 - 2x^3.
	for _, x := range []float64{0.2, 0.4, 0.7} {
		approx(t, RegIncBeta(2, 2, x), 3*x*x-2*x*x*x, 1e-10, "I_x(2,2)")
	}
}

func TestRegIncBetaMonotonic(t *testing.T) {
	prev := -1.0
	for x := 0.0; x <= 1.0001; x += 0.01 {
		v := RegIncBeta(3, 7, math.Min(x, 1))
		if v < prev-1e-12 {
			t.Fatalf("RegIncBeta not monotone at x=%v", x)
		}
		prev = v
	}
}

// The t distribution is symmetric about 0: its two tails, P(T > x) each,
// and the central mass P(|T| < x) = I_{x²/(df+x²)}(1/2, df/2) sum to 1.
// studentTSF and the central mass reach RegIncBeta from opposite ends.
func TestStudentTCDFSymmetry(t *testing.T) {
	for _, df := range []float64{1, 5, 29} {
		for _, x := range []float64{0, 0.5, 1.3, 2.8} {
			tail := studentTSF(x, df)
			central := RegIncBeta(0.5, df/2, x*x/(df+x*x))
			approx(t, 2*tail+central, 1, 1e-10, "t CDF symmetry")
		}
	}
}

func TestStudentTCDFKnownQuantiles(t *testing.T) {
	// t_{0.975, 10} = 2.2281; P(T > 2.2281) ~ 0.025 at df = 10.
	approx(t, studentTSF(2.2281, 10), 0.025, 5e-4, "t quantile df=10")
	// Large df approaches normal: P(T > 1.96) ~ 0.025 at df = 1000.
	approx(t, studentTSF(1.96, 1000), 0.025, 2e-3, "t ~ normal for large df")
}

func TestQuantileSortedAgreesWithSortedInput(t *testing.T) {
	r := rng.New(41)
	err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%30) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		q := Quantile(xs, 0.5)
		sort.Float64s(xs)
		return q >= xs[0] && q <= xs[n-1]
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// --- Boundary cases of the quantile and median-CI machinery -----------------

func TestQuantileSingleton(t *testing.T) {
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got := Quantile([]float64{7}, q); got != 7 {
			t.Fatalf("Quantile([7], %v) = %v", q, got)
		}
	}
}

func TestQuantilePair(t *testing.T) {
	xs := []float64{10, 20}
	cases := map[float64]float64{0: 10, 0.25: 12.5, 0.5: 15, 0.75: 17.5, 1: 20}
	for q, want := range cases {
		if got := Quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Quantile(%v, %v) = %v, want %v", xs, q, got, want)
		}
	}
	// Out-of-range q clamps to the extremes rather than extrapolating.
	if Quantile(xs, -0.5) != 10 || Quantile(xs, 1.5) != 20 {
		t.Fatal("out-of-range quantile did not clamp")
	}
}

func TestQuantileAllEqual(t *testing.T) {
	xs := []float64{4, 4, 4, 4, 4}
	for _, q := range []float64{0, 0.3, 0.5, 0.9, 1} {
		if got := Quantile(xs, q); got != 4 {
			t.Fatalf("Quantile(all-equal, %v) = %v", q, got)
		}
	}
}

func TestMedianCISingleton(t *testing.T) {
	lo, hi := medianCISorted([]float64{3}, 0.95)
	if lo != 3 || hi != 3 {
		t.Fatalf("n=1 CI = [%v, %v], want degenerate [3, 3]", lo, hi)
	}
}

func TestMedianCIPair(t *testing.T) {
	// With n=2 no inner pair of order statistics reaches 95% coverage; the
	// interval must fall back to the sample extremes and bracket the median.
	lo, hi := medianCISorted([]float64{1, 9}, 0.95)
	if lo != 1 || hi != 9 {
		t.Fatalf("n=2 CI = [%v, %v], want [1, 9]", lo, hi)
	}
}

func TestMedianCIAllEqual(t *testing.T) {
	for _, n := range []int{2, 3, 10, 101} {
		s := make([]float64, n)
		for i := range s {
			s[i] = 6
		}
		lo, hi := medianCISorted(s, 0.95)
		if lo != 6 || hi != 6 {
			t.Fatalf("n=%d all-equal CI = [%v, %v]", n, lo, hi)
		}
	}
}

func TestMedianCINestedByConfidence(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	lo90, hi90 := medianCISorted(s, 0.90)
	lo99, hi99 := medianCISorted(s, 0.99)
	if lo99 > lo90 || hi99 < hi90 {
		t.Fatalf("99%% CI [%v,%v] not containing 90%% CI [%v,%v]", lo99, hi99, lo90, hi90)
	}
	med := Quantile(s, 0.5)
	if lo90 > med || hi90 < med {
		t.Fatalf("CI [%v,%v] does not bracket median %v", lo90, hi90, med)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s := Summarize([]float64{42})
	if s.N != 1 || s.Median != 42 || s.Mean != 42 || s.MedianLo != 42 || s.MedianHi != 42 {
		t.Fatalf("Summarize([42]) = %+v", s)
	}
}

func TestSummarizePair(t *testing.T) {
	s := Summarize([]float64{2, 6})
	if s.N != 2 || s.Median != 4 || s.Mean != 4 {
		t.Fatalf("Summarize([2 6]) = %+v", s)
	}
	if s.MedianLo != 2 || s.MedianHi != 6 {
		t.Fatalf("n=2 CI = [%v, %v], want the extremes", s.MedianLo, s.MedianHi)
	}
}
