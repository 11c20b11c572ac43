package saturation

import (
	"math"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/mac"
	"repro/internal/rng"
	"repro/internal/traffic"
)

func stdConfig() mac.Config {
	cfg := mac.DefaultConfig()
	cfg.CWMin = 16 // standard DCF; the paper's CWmin=1 degenerates under saturation
	return cfg
}

func TestModelFromConfig(t *testing.T) {
	mo := NewModelFromConfig(stdConfig(), 10)
	if mo.W != 16 {
		t.Fatalf("W = %d", mo.W)
	}
	if mo.M != 6 { // 16 << 6 = 1024
		t.Fatalf("M = %d", mo.M)
	}
}

func TestSingleStationTau(t *testing.T) {
	mo := Model{N: 1, W: 16, M: 6}
	tau, p, err := mo.FixedPoint()
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Fatalf("p = %v for n=1", p)
	}
	// Bianchi: tau = 2/(W+1) when p = 0.
	if want := 2.0 / 17; math.Abs(tau-want) > 1e-9 {
		t.Fatalf("tau = %v, want %v", tau, want)
	}
}

func TestFixedPointConsistency(t *testing.T) {
	for _, n := range []int{2, 5, 10, 20, 50} {
		mo := Model{N: n, W: 16, M: 6}
		tau, p, err := mo.FixedPoint()
		if err != nil {
			t.Fatal(err)
		}
		if tau <= 0 || tau >= 1 || p <= 0 || p >= 1 {
			t.Fatalf("n=%d: tau=%v p=%v out of range", n, tau, p)
		}
		// The coupled equation must hold at the root.
		if got := 1 - math.Pow(1-tau, float64(n-1)); math.Abs(got-p) > 1e-6 {
			t.Fatalf("n=%d: p mismatch %v vs %v", n, got, p)
		}
	}
}

func TestTauDecreasesWithN(t *testing.T) {
	prev := math.Inf(1)
	for _, n := range []int{2, 5, 10, 20, 50, 100} {
		tau, _, err := Model{N: n, W: 16, M: 6}.FixedPoint()
		if err != nil {
			t.Fatal(err)
		}
		if tau >= prev {
			t.Fatalf("tau not decreasing at n=%d: %v >= %v", n, tau, prev)
		}
		prev = tau
	}
}

func TestCollisionProbabilityIncreasesWithN(t *testing.T) {
	prev := -1.0
	for _, n := range []int{2, 5, 10, 20, 50} {
		_, p, err := Model{N: n, W: 16, M: 6}.FixedPoint()
		if err != nil {
			t.Fatal(err)
		}
		if p <= prev {
			t.Fatalf("p not increasing at n=%d: %v <= %v", n, p, prev)
		}
		prev = p
	}
}

func TestPredictSane(t *testing.T) {
	cfg := stdConfig()
	mbps, err := Predict(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	if mbps <= 0 {
		t.Fatalf("throughput %v Mbps out of range", mbps)
	}
	// 64 B payloads at 54 Mbit/s: overhead dominates; delivered payload
	// throughput must be far below the PHY rate.
	if mbps > 10 {
		t.Fatalf("implausible throughput %v Mbps for 64B payloads", mbps)
	}
}

func TestPredictLargerPayloadMoreThroughput(t *testing.T) {
	small := stdConfig()
	large := stdConfig()
	large.PayloadBytes = 1024
	ts, err := Predict(small, 10)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := Predict(large, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tl <= ts {
		t.Fatalf("1024B throughput %v not above 64B %v", tl, ts)
	}
}

func TestPredictBadModel(t *testing.T) {
	if _, _, err := (Model{N: 0, W: 16, M: 6}).FixedPoint(); err == nil {
		t.Fatal("n=0 accepted")
	}
}

// TestModelMatchesSimulator cross-validates Bianchi's prediction against
// the DCF simulator under saturated traffic, over n ∈ {2, ..., 50} and
// both paper payloads. The model makes idealizations (slot-homogeneous
// behaviour, no EIFS, independence of collisions) that the simulator does
// not, and the simulator delivers a little less: simulator/model ratios
// on this grid are 0.87–0.98, never above 1. The band [0.80, 1.00] holds
// them with margin and fails when either side drifts past the other.
func TestModelMatchesSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator cross-validation")
	}
	for _, payload := range []int{64, 1024} {
		cfg := stdConfig()
		cfg.PayloadBytes = payload
		for _, n := range []int{2, 5, 10, 15, 30, 50} {
			mbps, err := Predict(cfg, n)
			if err != nil {
				t.Fatal(err)
			}
			res := mac.RunContinuous(cfg, n, backoff.NewBEB, traffic.NewSaturated(),
				300*time.Millisecond, rng.New(uint64(n)), nil)
			ratio := res.ThroughputMbps / mbps
			if ratio < 0.80 || ratio > 1.00 {
				t.Errorf("payload=%d n=%d: simulator %.3f Mbps vs Bianchi %.3f Mbps (ratio %.3f, want [0.80, 1.00])",
					payload, n, res.ThroughputMbps, mbps, ratio)
			}
		}
	}
}
