// Package phy models the physical layer of IEEE 802.11g at the level of
// detail the paper's experiments depend on: OFDM frame timing (20 µs
// preamble, 4 µs symbols), log-distance path loss over a 2D plane, additive
// interference with SINR-threshold reception (the YANS model's essential
// behaviour), and energy-detection carrier sensing.
//
// The deliberate simplification relative to NS3 is the error model: a frame
// is received iff its SINR stays above the rate's decoding threshold for the
// whole frame, instead of drawing per-chunk bit errors. In the paper's
// 40 m × 40 m grid the receive-power spread between any two contending
// stations is far below the 54 Mbit/s threshold, so — exactly as the paper
// observes in Figure 13 — every temporal overlap is a collision and every
// clean frame is delivered. The substitution preserves the collision-cost
// behaviour under study.
package phy

import "math"

// DBm is a power level in decibel-milliwatts.
type DBm float64

// MilliWatt converts a dBm level to linear milliwatts.
func (p DBm) MilliWatt() float64 {
	return math.Pow(10, float64(p)/10)
}

// DB is a dimensionless ratio in decibels.
type DB float64

// Ratio converts a dB value to a linear power ratio.
func (d DB) Ratio() float64 {
	return math.Pow(10, float64(d)/10)
}

// Position is a point on the simulation plane, in metres.
type Position struct {
	X, Y float64
}

// DistanceTo returns the Euclidean distance between two positions.
func (p Position) DistanceTo(q Position) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}
