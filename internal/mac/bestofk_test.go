package mac

import (
	"slices"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/rng"
)

func TestBestOfKCompletesAllStations(t *testing.T) {
	cfg := DefaultConfig()
	for _, k := range []int{3, 5} {
		res := RunBestOfK(cfg, k, 20, rng.New(uint64(k)), nil)
		if len(res.Stations) != 20 {
			t.Fatalf("k=%d: %d station stats", k, len(res.Stations))
		}
		for i, s := range res.Stations {
			if s.FinishTime <= 0 {
				t.Fatalf("k=%d: station %d unfinished", k, i)
			}
		}
	}
}

func TestBestOfKEstimatesOverestimate(t *testing.T) {
	// Section VI: "only overestimates occur". The adopted window should be
	// at least n for (almost) every station; we require the median to be.
	// Every estimate is a level's window 2^i, so it is a power of two in
	// [1, 2^(bestOfKLevels-1)].
	cfg := DefaultConfig()
	for _, n := range []int{20, 60, 100} {
		for seed := uint64(0); seed < 3; seed++ {
			res := RunBestOfK(cfg, 5, n, rng.New(100+seed), nil)
			for i, e := range res.Estimates {
				if e < 1 || e > 1<<(bestOfKLevels-1) || e&(e-1) != 0 {
					t.Fatalf("n=%d seed=%d: station %d estimate %d is not a power of two in [1, %d]",
						n, seed, i, e, 1<<(bestOfKLevels-1))
				}
			}
			med := medianIntSlice(res.Estimates)
			if med < n {
				t.Errorf("n=%d seed=%d: median estimate %d underestimates", n, seed, med)
			}
			if med > 64*n {
				t.Errorf("n=%d seed=%d: median estimate %d absurdly high", n, seed, med)
			}
		}
	}
}

func TestBestOfKEstimationPhaseLength(t *testing.T) {
	want := time.Duration(11*3) * 35 * time.Microsecond
	if got := bestOfKPhase(3); got != want {
		t.Fatalf("phase duration %v, want %v", got, want)
	}
	cfg := DefaultConfig()
	res := RunBestOfK(cfg, 3, 10, rng.New(7), nil)
	if res.EstimationTime != want {
		t.Fatalf("EstimationTime %v, want %v", res.EstimationTime, want)
	}
	if res.TotalTime <= res.EstimationTime {
		t.Fatalf("total %v not beyond estimation phase %v", res.TotalTime, res.EstimationTime)
	}
}

func TestBestOfKEstimationIsSmallFraction(t *testing.T) {
	// The paper: estimation costs < 5% of total time at n = 150. Allow a
	// loose 25% at n = 60 where totals are smaller.
	cfg := DefaultConfig()
	res := RunBestOfK(cfg, 3, 60, rng.New(8), nil)
	if frac := float64(res.EstimationTime) / float64(res.TotalTime); frac > 0.25 {
		t.Fatalf("estimation is %.0f%% of total", frac*100)
	}
}

func TestBestOfKFewCollisions(t *testing.T) {
	// With W >= n the fixed-backoff phase should see far fewer collisions
	// than BEB at the same n.
	cfg := DefaultConfig()
	const n = 60
	bok := RunBestOfK(cfg, 5, n, rng.New(9), nil)
	beb := RunBatch(cfg, n, backoff.NewBEB, rng.New(9), nil)
	if bok.Collisions >= beb.Collisions {
		t.Fatalf("best-of-5 collisions %d not below BEB %d", bok.Collisions, beb.Collisions)
	}
}

// TestBestOfKBeatsBEB reproduces Result 7 in miniature: at moderate n the
// size-estimation approach outperforms BEB on total time.
func TestBestOfKBeatsBEB(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial MAC comparison")
	}
	cfg := DefaultConfig()
	const n, trials = 100, 9
	var bokTotals, bebTotals []float64
	for tr := 0; tr < trials; tr++ {
		g := rng.New(uint64(500 + tr))
		bokTotals = append(bokTotals, float64(RunBestOfK(cfg, 3, n, g.Derive("bok"), nil).TotalTime))
		bebTotals = append(bebTotals, float64(RunBatch(cfg, n, backoff.NewBEB, g.Derive("beb"), nil).TotalTime))
	}
	if medianF(bokTotals) >= medianF(bebTotals) {
		t.Fatalf("Result 7 violated: best-of-3 median %v >= BEB median %v",
			time.Duration(medianF(bokTotals)), time.Duration(medianF(bebTotals)))
	}
}

// probeCounter counts best-of-k's dummy probes as the tracer sees them.
type probeCounter struct{ probes int }

func (p *probeCounter) TxStart(_ int, kind FrameKind, _, _ time.Duration) {
	if kind == FrameDummy {
		p.probes++
	}
}
func (p *probeCounter) Success(int, time.Duration)    {}
func (p *probeCounter) AckTimeout(int, time.Duration) {}

func TestBestOfKProbesSent(t *testing.T) {
	var pc probeCounter
	RunBestOfK(DefaultConfig(), 3, 30, rng.New(10), &pc)
	if pc.probes < 30 {
		t.Fatalf("only %d probes for 30 stations (level 0 alone sends one each per round)", pc.probes)
	}
}

func TestBestOfKDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	var pa, pb probeCounter
	a := RunBestOfK(cfg, 3, 25, rng.New(11), &pa)
	b := RunBestOfK(cfg, 3, 25, rng.New(11), &pb)
	if a.TotalTime != b.TotalTime || pa.probes != pb.probes {
		t.Fatal("same seed diverged")
	}
	for i := range a.Estimates {
		if a.Estimates[i] != b.Estimates[i] {
			t.Fatalf("estimate %d diverged", i)
		}
	}
}

func TestBestOfKPanicsOnBadConfig(t *testing.T) {
	for _, c := range []struct {
		name string
		k, n int
	}{
		{"k=0", 0, 5},
		{"n=0", 3, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			RunBestOfK(DefaultConfig(), c.k, c.n, rng.New(1), nil)
		}()
	}
}

func medianIntSlice(xs []int) int {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}
