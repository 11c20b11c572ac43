package mac

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/rng"
	"repro/internal/traffic"
)

// Random frame loss (the paper's "an ACK might be lost due to wireless
// effects" aside): the sender cannot distinguish such losses from
// collisions, diagnoses a collision, and pays the same retransmission
// costs. These tests inject loss and check the MAC still terminates with
// consistent accounting.

func lossyConfig(p float64) Config {
	cfg := DefaultConfig()
	cfg.Radio.FrameLossProb = p
	return cfg
}

func TestLossyChannelStillCompletes(t *testing.T) {
	cfg := lossyConfig(0.05)
	res := RunBatch(cfg, 25, backoff.NewBEB, rng.New(1), nil)
	for i, s := range res.Stations {
		if s.FinishTime <= 0 {
			t.Fatalf("station %d never finished on lossy channel", i)
		}
	}
	checkLossyInvariants(t, res)
}

func checkLossyInvariants(t *testing.T, res Result) {
	t.Helper()
	// Attempts-1 timeouts per station still holds: every non-final attempt
	// ends in a timeout whether the cause was a collision or a loss.
	for i, s := range res.Stations {
		if s.AckTimeouts != s.Attempts-1 {
			t.Fatalf("station %d: %d timeouts vs %d attempts", i, s.AckTimeouts, s.Attempts)
		}
	}
}

func TestLossInflatesTimeoutsBeyondCollisions(t *testing.T) {
	// With loss, some ACK timeouts have no corresponding collision at the
	// AP, so total timeouts should exceed what the disjoint collisions
	// alone explain more often than on the clean channel.
	clean := RunBatch(DefaultConfig(), 40, backoff.NewBEB, rng.New(2), nil)
	lossy := RunBatch(lossyConfig(0.15), 40, backoff.NewBEB, rng.New(2), nil)
	excessClean := totalAckTimeouts(clean) - 2*clean.Collisions
	excessLossy := totalAckTimeouts(lossy) - 2*lossy.Collisions
	if excessLossy <= excessClean {
		t.Fatalf("loss did not add unexplained timeouts: clean excess %d, lossy %d",
			excessClean, excessLossy)
	}
}

func TestLossyChannelSlower(t *testing.T) {
	var clean, lossy []float64
	for seed := uint64(0); seed < 7; seed++ {
		c := RunBatch(DefaultConfig(), 40, backoff.NewBEB, rng.New(seed), nil)
		l := RunBatch(lossyConfig(0.15), 40, backoff.NewBEB, rng.New(seed), nil)
		clean = append(clean, float64(c.TotalTime))
		lossy = append(lossy, float64(l.TotalTime))
	}
	if medianF(lossy) <= medianF(clean) {
		t.Fatalf("15%% loss did not slow the batch: %v vs %v",
			time.Duration(medianF(lossy)), time.Duration(medianF(clean)))
	}
}

func TestLossDeterministicGivenSeed(t *testing.T) {
	a := RunBatch(lossyConfig(0.1), 20, backoff.NewBEB, rng.New(5), nil)
	b := RunBatch(lossyConfig(0.1), 20, backoff.NewBEB, rng.New(5), nil)
	if a.TotalTime != b.TotalTime || totalAckTimeouts(a) != totalAckTimeouts(b) {
		t.Fatal("lossy runs diverged under the same seed")
	}
}

// TestZeroLossSeedDerivesFromStream: every driver seeds an unset LossSeed
// from the run's own stream, so trials with different seeds see different
// loss patterns instead of all sharing rng.New(0).
func TestZeroLossSeedDerivesFromStream(t *testing.T) {
	unset := lossyConfig(0.1)
	explicit := unset
	explicit.Radio.LossSeed = rng.New(8).Derive("frame-loss").Uint64()

	if a, b := RunBatch(unset, 15, backoff.NewBEB, rng.New(8), nil),
		RunBatch(explicit, 15, backoff.NewBEB, rng.New(8), nil); !reflect.DeepEqual(a, b) {
		t.Errorf("batch: unset LossSeed differs from the derived one")
	}
	if a, b := RunBestOfK(unset, 3, 15, rng.New(8), nil),
		RunBestOfK(explicit, 3, 15, rng.New(8), nil); !reflect.DeepEqual(a, b) {
		t.Errorf("best-of-k: unset LossSeed differs from the derived one")
	}
	if a, b := RunContinuous(unset, 6, backoff.NewBEB, traffic.NewPoisson(500), 20*time.Millisecond, rng.New(8), nil),
		RunContinuous(explicit, 6, backoff.NewBEB, traffic.NewPoisson(500), 20*time.Millisecond, rng.New(8), nil); !reflect.DeepEqual(a, b) {
		t.Errorf("continuous: unset LossSeed differs from the derived one")
	}
}

func TestTimeToFinishQuantiles(t *testing.T) {
	res := RunBatch(DefaultConfig(), 21, backoff.NewBEB, rng.New(6), nil)
	var ts []time.Duration
	for _, st := range res.Stations {
		ts = append(ts, st.FinishTime)
	}
	slices.Sort(ts)
	if ts[0] <= 0 {
		t.Fatal("first finish not positive")
	}
	if ts[20] != res.TotalTime {
		t.Fatalf("last finish %v != total %v", ts[20], res.TotalTime)
	}
	if ts[10] != res.HalfTime {
		t.Fatalf("median finish %v != half time %v", ts[10], res.HalfTime)
	}
}
