package repro

// Integration test telling the paper's whole story through the public API,
// start to finish. Each section corresponds to one of the paper's numbered
// Results; quick configurations keep the runtime modest while preserving
// every qualitative claim.

import (
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/phy"
)

func medians(t *testing.T, trials int, run func(seed uint64) float64) float64 {
	t.Helper()
	xs := make([]float64, trials)
	for i := range xs {
		xs[i] = run(uint64(1000 + i*13))
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

func TestPaperStory(t *testing.T) {
	if testing.Short() {
		t.Skip("full-narrative integration test")
	}
	const n, trials = 100, 9

	type agg struct{ cwAbstract, cwWifi, total, collisions float64 }
	res := map[string]agg{}
	for _, algo := range Algorithms() {
		algo := algo
		res[algo] = agg{
			cwAbstract: medians(t, trials, func(seed uint64) float64 {
				r := runBatch(t, Abstract(), algo, n, WithSeed(seed))
				return float64(r.CWSlots)
			}),
			cwWifi: medians(t, trials, func(seed uint64) float64 {
				r := runBatch(t, WiFi(), algo, n, WithSeed(seed))
				return float64(r.CWSlots)
			}),
			total: medians(t, trials, func(seed uint64) float64 {
				r := runBatch(t, WiFi(), algo, n, WithSeed(seed))
				return float64(r.TotalTime)
			}),
			collisions: medians(t, trials, func(seed uint64) float64 {
				r := runBatch(t, WiFi(), algo, n, WithSeed(seed))
				return float64(r.Collisions)
			}),
		}
	}

	// Result 1: the newer algorithms beat BEB on CW slots, on both models.
	for _, a := range []string{"LB", "LLB", "STB"} {
		if res[a].cwAbstract >= res["BEB"].cwAbstract {
			t.Errorf("Result 1 (abstract): %s CW slots %v >= BEB %v", a, res[a].cwAbstract, res["BEB"].cwAbstract)
		}
		if res[a].cwWifi >= res["BEB"].cwWifi {
			t.Errorf("Result 1 (wifi): %s CW slots %v >= BEB %v", a, res[a].cwWifi, res["BEB"].cwWifi)
		}
	}

	// Result 2: on total time the ordering reverses for LB and STB (LLB is
	// BEB's close competitor and may tie at this n).
	for _, a := range []string{"LB", "STB"} {
		if res[a].total <= res["BEB"].total {
			t.Errorf("Result 2: %s total %v <= BEB %v", a, res[a].total, res["BEB"].total)
		}
	}

	// Results 3-4 (mechanism): the slower-backoff algorithms suffer more
	// disjoint collisions, and the decomposition shows transmission time
	// dominating ACK timeouts.
	for _, a := range []string{"LB", "STB"} {
		if res[a].collisions <= res["BEB"].collisions {
			t.Errorf("Result 3: %s collisions %v <= BEB %v", a, res[a].collisions, res["BEB"].collisions)
		}
	}
	d := runBatch(t, WiFi(), "BEB", n, WithSeed(5)).Decomposition
	if d.TransmissionTime <= d.AckTimeoutTime {
		t.Errorf("Result 3: (I) %v not above (II) %v", d.TransmissionTime, d.AckTimeoutTime)
	}
	if d.LowerBound > d.Observed {
		t.Errorf("decomposition lower bound %v above observed %v", d.LowerBound, d.Observed)
	}

	// Result 7: the size-estimation approach beats BEB on total time.
	bok := medians(t, trials, func(seed uint64) float64 {
		r := mustRun(t, Scenario{Model: WiFi(), N: n, Workload: BestOfKWorkload{K: 3},
			Options: []Option{WithSeed(seed)}}).BestOfK
		return float64(r.TotalTime)
	})
	if bok >= res["BEB"].total {
		t.Errorf("Result 7: best-of-3 total %v >= BEB %v",
			time.Duration(bok), time.Duration(res["BEB"].total))
	}
}

// TestAPIInvariantsQuick property-checks the public API across random
// (n, algorithm) pairs: all runs complete, metrics stay consistent, and
// both models agree that every packet finished.
func TestAPIInvariantsQuick(t *testing.T) {
	algos := PaperAlgorithmList()
	var eng Engine
	batch := func(m Model, algo Algorithm, n int, seed uint64) (*BatchResult, error) {
		res, err := eng.Run(t.Context(), Scenario{Model: m, Algorithm: algo, N: n, Options: []Option{WithSeed(seed)}})
		return res.Batch, err
	}
	err := quick.Check(func(nRaw uint8, algoRaw uint8, seed uint16) bool {
		n := int(nRaw%40) + 1
		algo := algos[int(algoRaw)%len(algos)]
		abs, err := batch(Abstract(), algo, n, uint64(seed))
		if err != nil || abs.CWSlots < n {
			return false
		}
		wifi, err := batch(WiFi(), algo, n, uint64(seed))
		if err != nil {
			return false
		}
		if wifi.TotalTime <= 0 || wifi.HalfTime > wifi.TotalTime {
			return false
		}
		if wifi.Decomposition == nil || wifi.Decomposition.LowerBound > wifi.Decomposition.Observed {
			return false
		}
		// On both models, n==1 never collides.
		if n == 1 && (abs.Collisions != 0 || wifi.Collisions != 0) {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCostModelExplainsGap verifies quantitatively that the core cost model
// T = C·(P+ρ) + W·s tracks the measured total-time difference between two
// algorithms (the tradeoff example's claim) within a factor of two.
func TestCostModelExplainsGap(t *testing.T) {
	if testing.Short() {
		t.Skip("paired-run comparison")
	}
	const n = 120
	var measured, modeled []float64
	for seed := uint64(0); seed < 9; seed++ {
		stb := runBatch(t, WiFi(), "STB", n, WithSeed(seed), WithPayload(1024))
		beb := runBatch(t, WiFi(), "BEB", n, WithSeed(seed), WithPayload(1024))
		measured = append(measured, float64(stb.TotalTime-beb.TotalTime))
		// Model: C·(P+ρ) + W·s with the full 1088-byte frame duration as
		// P+ρ and the 9 µs slot as s.
		dC := float64(stb.Collisions - beb.Collisions)
		dW := float64(stb.CWSlots - beb.CWSlots)
		frame := float64(phy.FrameDuration(phy.Rate54Mbps, 1088))
		modeled = append(modeled, dC*frame+dW*float64(9*time.Microsecond))
	}
	sort.Float64s(measured)
	sort.Float64s(modeled)
	mMeas, mMod := measured[len(measured)/2], modeled[len(modeled)/2]
	if mMeas <= 0 || mMod <= 0 {
		t.Fatalf("expected positive STB-BEB gaps: measured %v, modeled %v", mMeas, mMod)
	}
	if r := mMeas / mMod; r < 0.5 || r > 2 {
		t.Fatalf("cost model off by %vx (measured %v ns vs modeled %v ns)", r, mMeas, mMod)
	}
}
