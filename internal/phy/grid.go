package phy

// The paper's topology (Section II): n stations placed in a 40 m × 40 m
// grid, laid out from the south-west corner moving left to right in 1 m
// increments, then up a row when the current row is filled; the access point
// sits (roughly) at the centre of the grid.

// GridSide is the side length, in metres, of the paper's station grid.
const GridSide = 40.0

// APPosition returns the access-point position at the centre of the grid.
func APPosition() Position {
	return Position{X: GridSide / 2, Y: GridSide / 2}
}

// StationGrid returns the positions of n stations using the paper's layout.
func StationGrid(n int) []Position {
	out := make([]Position, n)
	for i := range out {
		out[i] = GridPosition(i)
	}
	return out
}

// GridPosition returns the position of station i in the paper's layout.
func GridPosition(i int) Position {
	perRow := int(GridSide) // 1 m increments across a 40 m row
	return Position{X: float64(i % perRow), Y: float64(i / perRow)}
}

// NearFarLayout places n stations along a line at exponentially increasing
// distances from the AP, creating large receive-power spreads. It exists for
// the capture-effect ablation: under this (non-paper) geometry, some
// overlapping transmissions survive by capture, unlike in the paper's grid.
// Distances are capped at 30 m so that every clean frame still decodes at
// 54 Mbit/s (beyond ~32 m the noise-limited SINR drops below threshold and
// a station could never deliver its packet).
func NearFarLayout(n int) []Position {
	ap := APPosition()
	out := make([]Position, n)
	d := 1.0
	for i := 0; i < n; i++ {
		out[i] = Position{X: ap.X + d, Y: ap.Y}
		d *= 1.4
		if d > 30 {
			d = 30
		}
	}
	return out
}
