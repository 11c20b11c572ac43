// Package saturation implements Bianchi's analytical model of IEEE 802.11
// DCF saturated throughput (G. Bianchi, "Performance Analysis of the IEEE
// 802.11 Distributed Coordination Function", JSAC 2000 — reference [8] of
// the paper). It provides the classic fixed-point solution for the
// per-slot transmission probability and the resulting throughput, and the
// test suite cross-validates it against this repository's DCF simulator
// under saturated traffic.
package saturation

import (
	"errors"
	"math"

	"repro/internal/mac"
)

// Model parameterizes Bianchi's chain: n saturated stations running
// truncated binary exponential backoff with initial window W and m doubling
// stages (CWmax = W·2^m).
type Model struct {
	N int // contending stations
	W int // initial contention window (CWmin)
	M int // backoff stages: CWmax = W << M
}

// NewModelFromConfig derives W and M from a MAC config's CWMin/CWMax.
func NewModelFromConfig(cfg mac.Config, n int) Model {
	m := 0
	for w := cfg.CWMin; w < cfg.CWMax; w *= 2 {
		m++
	}
	return Model{N: n, W: cfg.CWMin, M: m}
}

// ErrNoFixedPoint reports that the τ/p iteration failed to converge.
var ErrNoFixedPoint = errors.New("saturation: fixed point did not converge")

// tauOf returns the stationary transmission probability for a given
// conditional collision probability p (Bianchi eq. 7).
func (mo Model) tauOf(p float64) float64 {
	w := float64(mo.W)
	m := float64(mo.M)
	num := 2 * (1 - 2*p)
	den := (1-2*p)*(w+1) + p*w*(1-math.Pow(2*p, m))
	return num / den
}

// FixedPoint solves the coupled equations τ(p), p = 1-(1-τ)^(n-1) by
// bisection on p (the right-hand side is monotone in p, so the root is
// unique).
func (mo Model) FixedPoint() (tau, p float64, err error) {
	if mo.N < 1 || mo.W < 1 || mo.M < 0 {
		return 0, 0, errors.New("saturation: need N >= 1, W >= 1, M >= 0")
	}
	if mo.N == 1 {
		return mo.tauOf(0), 0, nil
	}
	f := func(p float64) float64 {
		tau := mo.tauOf(p)
		return 1 - math.Pow(1-tau, float64(mo.N-1)) - p
	}
	lo, hi := 0.0, 0.999999
	if f(lo) < 0 {
		// p = 0 already overshoots: degenerate (cannot happen for n >= 2).
		return 0, 0, ErrNoFixedPoint
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if f(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	p = (lo + hi) / 2
	return mo.tauOf(p), p, nil
}

// Predict evaluates Bianchi's throughput formula, in delivered payload
// megabits per second, with cycle durations taken from the MAC
// configuration: a successful cycle costs frame + SIFS + ACK + DIFS, a
// collision costs frame + ACK timeout + DIFS (the sender learns of the
// collision only through its timeout — the paper's central cost).
func Predict(cfg mac.Config, n int) (mbps float64, err error) {
	mo := NewModelFromConfig(cfg, n)
	tau, _, err := mo.FixedPoint()
	if err != nil {
		return 0, err
	}
	nf := float64(n)
	ptr := 1 - math.Pow(1-tau, nf)
	ps := 0.0
	if ptr > 0 {
		ps = nf * tau * math.Pow(1-tau, nf-1) / ptr
	}

	sigma := cfg.SlotTime.Seconds()
	ts := (cfg.DataFrameDuration() + cfg.SIFS + cfg.AckDuration() + cfg.DIFS).Seconds()
	tc := (cfg.DataFrameDuration() + cfg.AckTimeout + cfg.DIFS).Seconds()
	payloadBits := float64(cfg.PayloadBytes * 8)

	denom := (1-ptr)*sigma + ptr*ps*ts + ptr*(1-ps)*tc
	if denom <= 0 {
		return 0, ErrNoFixedPoint
	}
	return ptr * ps * payloadBits / denom / 1e6, nil
}
