// Package core encodes the paper's analytical contribution: the
// collision-cost model for total time,
//
//	T_A = C_A·(P + ρ) + W_A·s            (Section III-B)
//
// where C_A is the number of disjoint collisions, P the packet transmission
// time, ρ the preamble duration, W_A the contention-window slots, and s the
// slot duration; together with the per-run cost decomposition of Section
// III-B ((I) transmission time, (II) ACK timeouts, (III) CW slots). The
// asymptotic growth shapes of Tables II and III are test oracles: they
// live in core_test.go, next to the tests that hold measurements to them.
package core

import (
	"fmt"
	"time"

	"repro/internal/mac"
	"repro/internal/phy"
)

// CostModel holds the constants of the paper's total-time formula.
type CostModel struct {
	// P is the transmission time of the packet's data symbols.
	P time.Duration
	// Rho is the preamble duration ρ.
	Rho time.Duration
	// S is the contention-window slot duration s.
	S time.Duration
}

// ModelFromConfig extracts the cost-model constants from a MAC config.
func ModelFromConfig(cfg mac.Config) CostModel {
	return CostModel{
		P:   phy.PayloadDuration(cfg.DataRate, cfg.PacketBytes()),
		Rho: phy.PreambleDuration,
		S:   cfg.SlotTime,
	}
}

// TotalTime evaluates T_A = C·(P+ρ) + W·s for measured C and W.
func (m CostModel) TotalTime(collisions, cwSlots int) time.Duration {
	return time.Duration(collisions)*(m.P+m.Rho) + time.Duration(cwSlots)*m.S
}

// Decomposition is the paper's Section III-B split of total time into its
// three collision-detection cost components.
type Decomposition struct {
	// TransmissionTime is component (I): airtime consumed by collisions
	// (disjoint-collision union duration).
	TransmissionTime time.Duration
	// AckTimeoutTime is component (II): the maximum per-station time spent
	// waiting out ACK timeouts (the paper quotes the unlucky station).
	AckTimeoutTime time.Duration
	// CWSlotTime is component (III): contention-window slots times the slot
	// duration.
	CWSlotTime time.Duration
	// LowerBound is the conservative total-time lower bound the paper
	// computes from (I) + (II) + (III).
	LowerBound time.Duration
	// Observed is the run's actual total time.
	Observed time.Duration
}

// Decompose splits a MAC run's total time per Section III-B.
func Decompose(cfg mac.Config, res mac.Result) Decomposition {
	d := Decomposition{
		TransmissionTime: res.CollisionAir,
		AckTimeoutTime:   res.MaxAckTimeoutWait,
		CWSlotTime:       time.Duration(res.CWSlots) * cfg.SlotTime,
		Observed:         res.TotalTime,
	}
	d.LowerBound = d.TransmissionTime + d.AckTimeoutTime + d.CWSlotTime
	return d
}

// String formats the decomposition like the paper's worked example.
func (d Decomposition) String() string {
	return fmt.Sprintf("(I) transmission %v + (II) ack timeouts %v + (III) CW slots %v = lower bound %v (observed %v)",
		d.TransmissionTime.Round(time.Microsecond), d.AckTimeoutTime.Round(time.Microsecond),
		d.CWSlotTime.Round(time.Microsecond), d.LowerBound.Round(time.Microsecond),
		d.Observed.Round(time.Microsecond))
}
