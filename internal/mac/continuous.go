package mac

import (
	"slices"
	"time"

	"repro/internal/backoff"
	"repro/internal/event"
	"repro/internal/rng"
	"repro/internal/traffic"
)

// Continuous-traffic mode: instead of one synchronized batch, every station
// receives a packet stream from an arrival process and queues packets while
// contending. DCF resets each station's contention window after every
// delivered packet. This extends the paper's single-batch setting toward
// the steady-state and long-lived-bursty regimes its Section VII surveys
// and its concluding remarks pose as open questions.

// TrafficSummary is a continuous-traffic run's outcome without per-station
// detail. Its field order is its JSON order, which the result store keeps.
type TrafficSummary struct {
	N       int
	Horizon time.Duration
	// Offered counts packet arrivals within the horizon; Delivered counts
	// acknowledged packets (the rest were queued or in flight at the end).
	Offered, Delivered int
	// Backlog is the number of packets still queued or in flight at the
	// horizon.
	Backlog int
	// ThroughputMbps is delivered payload bits per simulated second.
	ThroughputMbps float64
	// Latency quantiles over delivered packets (arrival to ACK).
	LatencyP50, LatencyP95, LatencyMax time.Duration
	// Collisions is the number of disjoint collisions at the AP.
	Collisions int
	// JainFairness is Jain's fairness index over per-station deliveries:
	// 1 = perfectly fair, 1/n = one station starves all others.
	JainFairness float64
}

// ContinuousResult aggregates a continuous-traffic run.
type ContinuousResult struct {
	TrafficSummary
	// Stations holds per-station counters.
	Stations []StationStats
	// Kernel is the run's deterministic work profile (see KernelStats).
	Kernel KernelStats
}

// RunContinuous simulates n stations for the given horizon with per-station
// arrivals drawn from proc. A saturated process keeps every queue non-empty
// for the whole horizon. maxPackets caps arrivals per station (0 = a
// horizon-scaled default) to bound memory under saturation.
func RunContinuous(cfg Config, n int, f backoff.Factory, proc traffic.Process,
	horizon time.Duration, g *rng.Source, tracer Tracer) ContinuousResult {
	if n < 1 {
		panic("mac: RunContinuous needs n >= 1")
	}
	if horizon <= 0 {
		panic("mac: RunContinuous needs a positive horizon")
	}
	m := newSim(cfg, n, f, g, tracer)
	m.collectLatencies = true

	// Pre-compute each station's arrival train. The per-station cap bounds
	// memory under saturation (gap-0 trains) at what the channel could
	// conceivably serve over the horizon.
	perStationCap := int(horizon/cfg.MinPerPacketTime()) + 2
	offered := 0
	for i, st := range m.sts {
		ga := g.DeriveIndexed("arrivals-", i)
		arrivals := traffic.Arrivals(proc, horizon, perStationCap, ga)
		offered += len(arrivals)
		for _, at := range arrivals {
			m.sched.ScheduleArg("arrival", at, handleArrival, st)
		}
	}

	m.sched.RunUntil(event.Time(horizon))

	res := ContinuousResult{
		TrafficSummary: TrafficSummary{N: n, Horizon: horizon, Offered: offered, Delivered: m.finished},
		Stations:       make([]StationStats, n),
		Kernel:         m.kernelStats(),
	}
	res.Collisions, _ = m.ap.disjointCollisions()
	res.Backlog = offered - m.finished
	res.ThroughputMbps = float64(m.finished*cfg.PayloadBytes*8) / horizon.Seconds() / 1e6

	if ls := m.latencies; len(ls) > 0 {
		slices.Sort(ls)
		res.LatencyP50 = ls[len(ls)/2]
		res.LatencyP95 = ls[(len(ls)*95)/100]
		res.LatencyMax = ls[len(ls)-1]
	}

	var sum, sumSq float64
	for i, s := range m.sts {
		res.Stations[i] = s.stats
		d := float64(s.stats.Delivered)
		sum += d
		sumSq += d * d
	}
	if sumSq > 0 {
		res.JainFairness = sum * sum / (float64(n) * sumSq)
	}
	return res
}
