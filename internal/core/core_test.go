package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/mac"
	"repro/internal/rng"
	"repro/internal/slotted"
)

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
	if _, err := PredictedTotalTime("NOPE", 100, 1); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestCrossoverLLBvsBEB(t *testing.T) {
	// Result 5: for large enough P, LLB's total exceeds BEB's. The model
	// must produce a positive finite crossover P, beyond which LLB loses.
	p, ok := CrossoverP("LLB", "BEB", 1e6)
	if !ok || p <= 0 {
		t.Fatalf("no crossover for LLB vs BEB: p=%v ok=%v", p, ok)
	}
	tLLB, _ := PredictedTotalTime("LLB", 1e6, 2*p)
	tBEB, _ := PredictedTotalTime("BEB", 1e6, 2*p)
	if tLLB <= tBEB {
		t.Fatalf("beyond crossover LLB %v should exceed BEB %v", tLLB, tBEB)
	}
	tLLBs, _ := PredictedTotalTime("LLB", 1e6, p/2)
	tBEBs, _ := PredictedTotalTime("BEB", 1e6, p/2)
	if tLLBs >= tBEBs {
		t.Fatalf("below crossover LLB %v should beat BEB %v", tLLBs, tBEBs)
	}
}

func TestCrossoverSameShapeRejected(t *testing.T) {
	if _, ok := CrossoverP("BEB", "STB", 1e6); ok {
		t.Fatal("BEB vs STB have equal collision shapes; no crossover expected")
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
	for _, f := range backoff.PaperAlgorithms() {
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

func TestCollisionCostRatio(t *testing.T) {
	cfg := mac.DefaultConfig()
	// 64B payload: 40 µs frame + 75 µs timeout over 9 µs slots.
	got := CollisionCostRatio(cfg)
	if math.Abs(got-115.0/9.0) > 1e-9 {
		t.Fatalf("cost ratio = %v, want %v", got, 115.0/9.0)
	}
	// A2 would need the ratio near 1; the default is an order of magnitude
	// off — the paper's thesis in one number.
	if got < 5 {
		t.Fatalf("cost ratio %v too close to the abstract model's 1", got)
	}
	// Larger payloads only worsen it.
	cfg.PayloadBytes = 1024
	if CollisionCostRatio(cfg) <= got {
		t.Fatal("1024B cost ratio not above 64B")
	}
}

func TestShapeRatiosValidation(t *testing.T) {
	if _, err := ShapeRatios("BEB", []int{1, 2}, []float64{1}, PredictedCWSlots); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if !math.IsNaN(RatioSpread(nil)) {
		t.Fatal("empty spread should be NaN")
	}
}
