package mac

import (
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/rng"
)

func instantConfig() Config {
	cfg := DefaultConfig()
	cfg.Radio.AbortOverlapAfter = 20 * time.Microsecond
	return cfg
}

func TestInstantDetectCompletes(t *testing.T) {
	cfg := instantConfig()
	res := RunBatch(cfg, 25, backoff.NewBEB, rng.New(1), nil)
	for i, s := range res.Stations {
		if s.FinishTime <= 0 {
			t.Fatalf("station %d unfinished", i)
		}
	}
}

func TestInstantDetectReplacesAckTimeouts(t *testing.T) {
	// With abort-based detection every collision is discovered at the
	// abort, not via an ACK timeout; successful solo frames still get ACKs.
	cfg := instantConfig()
	res := RunBatch(cfg, 25, backoff.NewBEB, rng.New(2), nil)
	var detects, timeouts int
	for _, s := range res.Stations {
		detects += s.InstantDetects
		timeouts += s.AckTimeouts
	}
	if detects == 0 {
		t.Fatal("no instant detections despite guaranteed first collision")
	}
	if timeouts != 0 {
		t.Fatalf("%d ACK timeouts in instant-detect mode (aborted frames should never wait)", timeouts)
	}
}

func TestInstantDetectCheaperCollisions(t *testing.T) {
	// Collision airtime per disjoint collision must shrink to about the
	// abort window (under aligned starts, exactly 20 µs; merged groups can
	// stretch slightly).
	cfg := instantConfig()
	res := RunBatch(cfg, 30, backoff.NewBEB, rng.New(3), nil)
	if res.Collisions == 0 {
		t.Skip("no collisions this seed")
	}
	per := res.CollisionAir / time.Duration(res.Collisions)
	if per > 2*cfg.Radio.AbortOverlapAfter {
		t.Fatalf("per-collision airtime %v, want <= 40µs", per)
	}
}

func TestInstantDetectInvariantHolds(t *testing.T) {
	// The serialization lower bound still applies: successes are unchanged.
	cfg := instantConfig()
	res := RunBatch(cfg, 15, backoff.NewSTB, rng.New(4), nil)
	minTotal := time.Duration(len(res.Stations)) * cfg.MinPerPacketTime()
	if res.TotalTime < minTotal {
		t.Fatalf("total %v below serialization bound %v", res.TotalTime, minTotal)
	}
}

func TestInstantDetectRoughlyNeutralForBEB(t *testing.T) {
	// Aborts make each collision cheap but immediate re-contention makes
	// collisions more frequent; for BEB the two effects roughly cancel
	// (see experiments.InstantDetectTable — only killing the deferral costs
	// too restores the abstract model). Assert the wash: within 15% of the
	// default either way.
	var def, inst []float64
	for seed := uint64(0); seed < 9; seed++ {
		d := RunBatch(DefaultConfig(), 60, backoff.NewBEB, rng.New(seed), nil)
		i := RunBatch(instantConfig(), 60, backoff.NewBEB, rng.New(seed), nil)
		def = append(def, float64(d.TotalTime))
		inst = append(inst, float64(i.TotalTime))
	}
	ratio := medianF(inst) / medianF(def)
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("instant/default total-time ratio %.2f outside the expected wash band", ratio)
	}
}
