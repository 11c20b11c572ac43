package repro

// The engine's observability hook. An Observer watches grid cells complete
// — admit wait, store hit/miss, simulate and write-through durations, and
// the run's deterministic kernel profile — without ever influencing them:
// results, goldens, and fingerprints are byte-identical with or without an
// observer attached. Wall-clock time is measured here, at the
// engine/harness boundary, never inside the simulation packages (the
// obsguard analyzer in internal/lint enforces that split).
//
// The hook is strictly pay-for-use: with Engine.Observer nil, runCell
// (sweep.go) reads no clock, builds no CellInfo and allocates nothing for
// observation — which is what keeps the zero-alloc steady-state invariant
// intact.

import (
	"time"

	"repro/internal/mac"
)

// SimStats is the deterministic work profile of one simulated cell:
// event-kernel counters, idle-slot fast-forward savings, and Tx pool
// traffic. Every field is a pure function of (scenario, seed) — see
// mac.KernelStats. It is a side channel: never serialized into store
// records, never fingerprinted.
type SimStats = mac.KernelStats

// CellInfo describes one completed grid cell, delivered to an Observer
// after the cell's Result is final.
type CellInfo struct {
	// Scenario and Seed identify the cell; Fingerprint is its store
	// address ("" when the engine has no store or the scenario cannot be
	// fingerprinted).
	Scenario    Scenario
	Seed        uint64
	Fingerprint string

	// Start is the wall-clock instant the cell began (span anchors use it;
	// durations below are what observers should aggregate).
	Start time.Time

	// Simulated reports whether this cell actually ran the simulator.
	// False means the store served it: a log replay, or a join onto an
	// identical in-flight cell.
	Simulated bool

	// AdmitWait is the wall time spent blocked in Engine.Admit waiting
	// for simulation budget (zero when Admit is nil or the cell did not
	// simulate).
	AdmitWait time.Duration
	// SimDuration is the wall time inside Model.run (zero when the cell
	// did not simulate).
	SimDuration time.Duration
	// PutDuration is the wall time writing the result through to the
	// store (zero on hits and storeless runs).
	PutDuration time.Duration
	// Total is the end-to-end wall time of the cell, including store
	// lookup and singleflight waits.
	Total time.Duration

	// Sim is the deterministic kernel profile of the run (zero when the
	// cell did not simulate, or under the abstract models, which have no
	// event kernel).
	Sim SimStats

	// Err is the cell's error, if any.
	Err error
}

// Observer receives one callback per completed grid cell from Sweep,
// SweepJSON, RunMany, and the aggregation path. Implementations must be
// safe for concurrent use — cells complete on the engine's worker pool —
// and should return quickly; a slow observer backpressures the sweep.
//
// Observing is passive by contract: an Observer must not mutate the
// scenario or result, and the engine guarantees cell values are identical
// with or without one attached.
type Observer interface {
	ObserveCell(CellInfo)
}
