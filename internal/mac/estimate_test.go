package mac

// Black-box checks of the BEST-OF-k size-estimation phase (paper Section
// VI): the properties the paper claims for RunBestOfK's estimates, read
// only through its Result.

import (
	"slices"
	"testing"

	"repro/internal/backoff"
	"repro/internal/rng"
)

func medianInt(xs []int) int {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}

func TestEstimateOverestimates(t *testing.T) {
	g := rng.New(1)
	for _, n := range []int{10, 50} {
		for _, k := range []int{3, 5} {
			res := RunBestOfK(DefaultConfig(), k, n, g.Derive("e"), nil)
			if med := medianInt(res.Estimates); med < n {
				t.Errorf("n=%d k=%d: median estimate %d underestimates", n, k, med)
			}
		}
	}
}

func TestEstimateBoundedAbove(t *testing.T) {
	// The estimate cannot exceed the level cap 2^10 = 1024.
	res := RunBestOfK(DefaultConfig(), 3, 150, rng.New(2), nil)
	for i, e := range res.Estimates {
		if e > 1024 {
			t.Fatalf("station %d estimate %d beyond cap", i, e)
		}
		if e < 1 {
			t.Fatalf("station %d estimate %d below 1", i, e)
		}
	}
}

func TestEstimatesArePowersOfTwo(t *testing.T) {
	res := RunBestOfK(DefaultConfig(), 5, 80, rng.New(3), nil)
	for i, e := range res.Estimates {
		if e&(e-1) != 0 {
			t.Fatalf("station %d estimate %d not a power of two", i, e)
		}
	}
}

func TestProbeSlotsFixed(t *testing.T) {
	// The probing phase is bestOfKLevels*k rounds whatever n is: 11*3 = 33 for
	// best-of-3 and 55 for best-of-5.
	for _, c := range []struct{ k, n, rounds int }{{3, 42, 33}, {5, 42, 55}, {3, 7, 33}} {
		res := RunBestOfK(DefaultConfig(), c.k, c.n, rng.New(4), nil)
		if got := int(res.EstimationTime / bestOfKRound); got != c.rounds || res.EstimationTime%bestOfKRound != 0 {
			t.Fatalf("k=%d n=%d: estimation phase %v is %d rounds of %v, want %d",
				c.k, c.n, res.EstimationTime, got, bestOfKRound, c.rounds)
		}
	}
}

func TestRunCompletesWithFewCollisions(t *testing.T) {
	const n = 100
	cfg := DefaultConfig()
	res := RunBestOfK(cfg, 5, n, rng.New(5), nil)
	if len(res.Stations) != n {
		t.Fatalf("%d station stats for %d stations", len(res.Stations), n)
	}
	for i, s := range res.Stations {
		if s.FinishTime <= 0 {
			t.Fatalf("station %d never delivered", i)
		}
	}
	// Fixed backoff at W >= n: expected collisions per window are bounded;
	// compare to BEB on the same batch size.
	beb := RunBatch(cfg, n, backoff.NewBEB, rng.New(5).Derive("beb"), nil)
	if res.Collisions >= beb.Collisions {
		t.Fatalf("best-of-5 collisions %d not below BEB %d", res.Collisions, beb.Collisions)
	}
}

func TestEstimateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a := RunBestOfK(cfg, 3, 60, rng.New(6), nil)
	b := RunBestOfK(cfg, 3, 60, rng.New(6), nil)
	if !slices.Equal(a.Estimates, b.Estimates) {
		t.Fatal("same seed diverged")
	}
}

func TestEstimatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("n=0 did not panic")
		}
	}()
	RunBestOfK(DefaultConfig(), 3, 0, rng.New(1), nil)
}
