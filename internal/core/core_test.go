package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/mac"
	"repro/internal/rng"
	"repro/internal/slotted"
)

// The Table II/III growth shapes, up to constant factors: the oracles
// TestTableIIGrowthShapes and TestTableIIICollisionShapes hold measured
// CW slots and collisions to.

// lg is log base 2, guarded to stay >= 1 so iterated logs of small n remain
// defined and positive (the asymptotic forms only constrain large n).
func lg(x float64) float64 {
	v := math.Log2(x)
	if v < 1 {
		return 1
	}
	return v
}

// PredictedCWSlots returns the Table II contention-window-slot growth shape
// for the algorithm (up to constant factors): BEB n·lg n, LB
// n·lg n/lg lg n, LLB n·lg lg n/lg lg lg n, STB n.
func PredictedCWSlots(algo string, n float64) (float64, error) {
	switch algo {
	case "BEB":
		return n * lg(n), nil
	case "LB":
		return n * lg(n) / lg(lg(n)), nil
	case "LLB":
		return n * lg(lg(n)) / lg(lg(lg(n))), nil
	case "STB":
		return n, nil
	default:
		return 0, fmt.Errorf("core: no CW-slot prediction for %q", algo)
	}
}

// PredictedCollisions returns the Table III disjoint-collision growth shape
// C_A: BEB n, LB n·lg n/lg lg n, LLB n·lg lg n/lg lg lg n, STB n.
func PredictedCollisions(algo string, n float64) (float64, error) {
	switch algo {
	case "BEB", "STB":
		return n, nil
	case "LB":
		return n * lg(n) / lg(lg(n)), nil
	case "LLB":
		return n * lg(lg(n)) / lg(lg(lg(n))), nil
	default:
		return 0, fmt.Errorf("core: no collision prediction for %q", algo)
	}
}

// ShapeRatios divides measured values by the predicted growth shape at each
// n; a bounded, roughly flat ratio series supports the Θ-form.
func ShapeRatios(algo string, ns []int, measured []float64,
	predict func(string, float64) (float64, error)) ([]float64, error) {
	if len(ns) != len(measured) {
		return nil, fmt.Errorf("core: %d sizes vs %d measurements", len(ns), len(measured))
	}
	out := make([]float64, len(ns))
	for i, n := range ns {
		pred, err := predict(algo, float64(n))
		if err != nil {
			return nil, err
		}
		if pred <= 0 {
			return nil, fmt.Errorf("core: non-positive prediction for %s at n=%d", algo, n)
		}
		out[i] = measured[i] / pred
	}
	return out, nil
}

// RatioSpread returns max/min of a positive series: the flatness statistic
// for ShapeRatios.
func RatioSpread(rs []float64) float64 {
	if len(rs) == 0 {
		return math.NaN()
	}
	lo, hi := rs[0], rs[0]
	for _, r := range rs[1:] {
		lo = math.Min(lo, r)
		hi = math.Max(hi, r)
	}
	if lo <= 0 {
		return math.Inf(1)
	}
	return hi / lo
}

func TestModelFromConfig(t *testing.T) {
	cfg := mac.DefaultConfig()
	m := ModelFromConfig(cfg)
	// 128 B at 54 Mbps: 5 symbols = 20 us of data; preamble 20 us; slot 9 us.
	if m.P != 20*time.Microsecond {
		t.Fatalf("P = %v", m.P)
	}
	if m.Rho != 20*time.Microsecond {
		t.Fatalf("Rho = %v", m.Rho)
	}
	if m.S != 9*time.Microsecond {
		t.Fatalf("S = %v", m.S)
	}
}

func TestTotalTimeFormula(t *testing.T) {
	m := CostModel{P: 20 * time.Microsecond, Rho: 20 * time.Microsecond, S: 9 * time.Microsecond}
	// The paper's worked example: 75·(9/2) ≈ 337 disjoint collisions at
	// (19+20) µs plus 886 slots. With our constants: 337·40 + 886·9.
	got := m.TotalTime(337, 886)
	want := 337*40*time.Microsecond + 886*9*time.Microsecond
	if got != want {
		t.Fatalf("TotalTime = %v, want %v", got, want)
	}
}

func TestDecomposeAgainstRun(t *testing.T) {
	cfg := mac.DefaultConfig()
	res := mac.RunBatch(cfg, 40, backoff.NewBEB, rng.New(3), nil)
	d := Decompose(cfg, res)
	if d.Observed != res.TotalTime {
		t.Fatalf("observed %v != run total %v", d.Observed, res.TotalTime)
	}
	if d.LowerBound != d.TransmissionTime+d.AckTimeoutTime+d.CWSlotTime {
		t.Fatal("lower bound is not the sum of components")
	}
	// The decomposition is a conservative lower bound: it must not exceed
	// the observed total (it ignores successes, SIFS, DIFS, ACKs).
	if d.LowerBound > d.Observed {
		t.Fatalf("lower bound %v exceeds observed %v", d.LowerBound, d.Observed)
	}
	// And it should capture a meaningful share of the total.
	if float64(d.LowerBound) < 0.2*float64(d.Observed) {
		t.Fatalf("lower bound %v explains too little of %v", d.LowerBound, d.Observed)
	}
	if d.String() == "" {
		t.Fatal("empty decomposition string")
	}
}

func TestTransmissionDominatesAckTimeouts(t *testing.T) {
	// Result 3: the collision-transmission component dominates the ACK
	// timeout component (an order of magnitude in the paper's example).
	cfg := mac.DefaultConfig()
	res := mac.RunBatch(cfg, 100, backoff.NewBEB, rng.New(4), nil)
	d := Decompose(cfg, res)
	if d.TransmissionTime <= d.AckTimeoutTime {
		t.Fatalf("(I) %v not above (II) %v", d.TransmissionTime, d.AckTimeoutTime)
	}
}

func TestPredictionsKnownValues(t *testing.T) {
	for _, tc := range []struct {
		algo string
		fn   func(string, float64) (float64, error)
		n    float64
		want float64
	}{
		{"BEB", PredictedCWSlots, 1024, 1024 * 10},
		{"STB", PredictedCWSlots, 1024, 1024},
		{"BEB", PredictedCollisions, 4096, 4096},
		{"STB", PredictedCollisions, 4096, 4096},
	} {
		got, err := tc.fn(tc.algo, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s(%v) = %v, want %v", tc.algo, tc.n, got, tc.want)
		}
	}
}

func TestPredictionOrderingLargeN(t *testing.T) {
	// Table II ordering at large n: STB < LLB < LB < BEB for CW slots.
	const n = 1e6
	vals := map[string]float64{}
	for _, a := range backoff.PaperAlgorithmNames() {
		v, err := PredictedCWSlots(a, n)
		if err != nil {
			t.Fatal(err)
		}
		vals[a] = v
	}
	if !(vals["STB"] < vals["LLB"] && vals["LLB"] < vals["LB"] && vals["LB"] < vals["BEB"]) {
		t.Fatalf("CW-slot shape ordering wrong at n=1e6: %v", vals)
	}
	// Table III ordering for collisions: BEB = STB < LLB < LB.
	cv := map[string]float64{}
	for _, a := range backoff.PaperAlgorithmNames() {
		v, _ := PredictedCollisions(a, n)
		cv[a] = v
	}
	if !(cv["BEB"] == cv["STB"] && cv["STB"] < cv["LLB"] && cv["LLB"] < cv["LB"]) {
		t.Fatalf("collision shape ordering wrong at n=1e6: %v", cv)
	}
}

func TestPredictionUnknownAlgo(t *testing.T) {
	if _, err := PredictedCWSlots("NOPE", 100); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := PredictedCollisions("NOPE", 100); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestTableIIGrowthShapes validates Table II empirically: measured CW slots
// divided by the predicted shape stays within a bounded ratio band as n
// grows 64-fold.
func TestTableIIGrowthShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("growth sweep")
	}
	ns := []int{512, 2048, 8192, 32768}
	const trials = 7
	for _, spec := range backoff.PaperAlgorithmNames() {
		f, _ := backoff.Registered(spec)
		name := f().Name()
		med := make([]float64, len(ns))
		for i, n := range ns {
			vals := make([]float64, trials)
			for tr := 0; tr < trials; tr++ {
				g := rng.New(uint64(8100 + tr)).Derive(name + "-" + string(rune(n)))
				vals[tr] = float64(runSlotted(t, n, f, g).CWSlots)
			}
			med[i] = medianF(vals)
		}
		ratios, err := ShapeRatios(name, ns, med, PredictedCWSlots)
		if err != nil {
			t.Fatal(err)
		}
		if spread := RatioSpread(ratios); spread > 3 {
			t.Errorf("%s: CW-slot shape ratio spread %.2f > 3 (ratios %v)", name, spread, ratios)
		}
	}
}

// runSlotted runs the aligned abstract kernel, failing t on an error.
func runSlotted(t *testing.T, n int, f backoff.Factory, g *rng.Source) slotted.Result {
	t.Helper()
	res, err := slotted.RunBatch(n, f, g)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTableIIICollisionShapes validates the collision bounds the paper
// proves in Section IV: BEB/n and STB/n stay flat, while LB and LLB grow
// relative to n.
func TestTableIIICollisionShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("growth sweep")
	}
	ns := []int{512, 4096, 32768}
	const trials = 7
	med := func(f backoff.Factory, name string) []float64 {
		out := make([]float64, len(ns))
		for i, n := range ns {
			vals := make([]float64, trials)
			for tr := 0; tr < trials; tr++ {
				g := rng.New(uint64(9100 + tr)).Derive(name + "-" + string(rune(n)))
				vals[tr] = float64(runSlotted(t, n, f, g).Collisions)
			}
			out[i] = medianF(vals)
		}
		return out
	}
	// Linear algorithms stay flat per n.
	for _, a := range []struct {
		f    backoff.Factory
		name string
	}{{backoff.NewBEB, "BEB"}, {backoff.NewSTB, "STB"}} {
		m := med(a.f, a.name)
		ratios, err := ShapeRatios(a.name, ns, m, PredictedCollisions)
		if err != nil {
			t.Fatal(err)
		}
		if spread := RatioSpread(ratios); spread > 2.5 {
			t.Errorf("%s: collision/n spread %.2f > 2.5 (%v)", a.name, spread, ratios)
		}
	}
	// Super-linear algorithms: collisions/n must grow.
	for _, a := range []struct {
		f    backoff.Factory
		name string
	}{{backoff.NewLB, "LB"}, {backoff.NewLLB, "LLB"}} {
		m := med(a.f, a.name)
		first := m[0] / float64(ns[0])
		last := m[len(m)-1] / float64(ns[len(ns)-1])
		if last <= first {
			t.Errorf("%s: collisions/n did not grow (%.2f -> %.2f)", a.name, first, last)
		}
	}
}

func medianF(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

func TestShapeRatiosValidation(t *testing.T) {
	if _, err := ShapeRatios("BEB", []int{1, 2}, []float64{1}, PredictedCWSlots); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if !math.IsNaN(RatioSpread(nil)) {
		t.Fatal("empty spread should be NaN")
	}
}
