package mac

import (
	"time"

	"repro/internal/backoff"
	"repro/internal/event"
	"repro/internal/rng"
)

// BEST-OF-k (paper Figure 17): before contending, stations estimate n by
// probing the channel. For levels i = 0..10 and k rounds per level, each
// station transmits a 28-byte dummy with probability 2^-i, otherwise senses.
// A station that finds the channel clear in more than k/2 of a level's
// rounds adopts W = 2^i and stops probing. After the (fixed-length)
// estimation phase every station runs fixed backoff with its own W.
//
// Probes are sensed, never acknowledged: the phase involves no collision
// detection and hence none of the collision costs the paper identifies.

// The paper's estimation parameters besides k: probe levels i = 0..10,
// 35 µs probing rounds, and 28-byte probes (no upper-layer headers).
const (
	bestOfKLevels     = 11
	bestOfKRound      = 35 * time.Microsecond
	bestOfKDummyBytes = 28
)

// bestOfKPhase is the estimation phase's fixed length at k rounds per level.
func bestOfKPhase(k int) time.Duration { return time.Duration(bestOfKLevels*k) * bestOfKRound }

// BestOfKResult extends Result with the estimation outcome.
type BestOfKResult struct {
	Result
	// Estimates holds each station's adopted window W (its estimate of n).
	Estimates []int
	// EstimationTime is the duration of the probing phase.
	EstimationTime time.Duration
}

// RunBestOfK simulates a single batch of n stations running BEST-OF-k (k
// probing rounds per level) followed by fixed backoff, on the same topology
// and DCF parameters as RunBatch.
func RunBestOfK(cfg Config, k, n int, g *rng.Source, tracer Tracer) BestOfKResult {
	if n < 1 {
		panic("mac: RunBestOfK needs n >= 1")
	}
	if k < 1 {
		panic("mac: RunBestOfK needs k >= 1")
	}
	// Stations get their fixed window only once probing ends, so they are
	// built without a policy and without a listener: a listening station
	// would await an ACK after its own probe and take EIFS after colliding
	// ones.
	m := newSim(cfg, n, nil, g, tracer)
	// The contention phase is batch-shaped (all probe-round events have
	// fired by then), so the idle-slot fast-forward applies.
	m.allowSlotSkip = !disableSlotSkip

	// ---- Phase 1: probing ------------------------------------------------
	type probe struct {
		g     *rng.Source
		done  bool
		w     int // adopted window; the cap until the station terminates
		clear int
		sent  bool // transmitted in the current round
	}
	probes := make([]*probe, n)
	for i := range probes {
		probes[i] = &probe{g: g.DeriveIndexed("probe-", i), w: 1 << (bestOfKLevels - 1)}
	}
	out := BestOfKResult{EstimationTime: bestOfKPhase(k), Estimates: make([]int, n)}

	for r := 0; r < bestOfKLevels*k; r++ {
		level := r / k
		roundInLevel := r % k
		start := time.Duration(r) * bestOfKRound
		m.sched.ScheduleArg("probeRound", start, func(event.Time, any) {
			sentCount := 0
			for i, p := range probes {
				p.sent = false
				if p.done {
					continue
				}
				if p.g.Bernoulli(1 / float64(int(1)<<level)) {
					p.sent = true
					sentCount++
					tx := m.medium.Transmit(m.sts[i].node, cfg.DataRate, bestOfKDummyBytes,
						Frame{Kind: FrameDummy, Src: i, Dst: APIndex}.Payload())
					if tracer != nil {
						tracer.TxStart(i, FrameDummy, time.Duration(tx.Start), time.Duration(tx.End))
					}
				}
			}
			// Score the round at its end: the grid guarantees every station
			// hears every probe (see phy.TestGridNoCapture), so a
			// non-sending station senses "clear" iff nobody sent.
			m.sched.ScheduleArg("probeScore", bestOfKRound-time.Microsecond, func(event.Time, any) {
				for _, p := range probes {
					if p.done {
						continue
					}
					if !p.sent && sentCount == 0 {
						p.clear++
					}
				}
				if roundInLevel == k-1 {
					for _, p := range probes {
						if p.done {
							continue
						}
						if 2*p.clear > k {
							p.done = true
							p.w = 1 << level
						}
						p.clear = 0
					}
				}
			}, nil)
		}, nil)
	}

	// ---- Phase 2: fixed backoff with the adopted windows ------------------
	m.sched.ScheduleArg("contentionStart", bestOfKPhase(k), func(event.Time, any) {
		for i, st := range m.sts {
			out.Estimates[i] = probes[i].w
			st.attach(backoff.NewFixed(probes[i].w))
			st.begin()
		}
	}, nil)

	m.drain()
	out.Result = m.collect()
	return out
}
