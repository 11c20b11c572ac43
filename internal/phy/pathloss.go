package phy

import "math"

// PathLossModel computes attenuation in dB as a function of distance in
// metres.
type PathLossModel interface {
	// Loss returns the propagation loss in dB at the given distance.
	Loss(distance float64) DB
}

// LogDistance is the log-distance propagation-loss model used by the paper's
// NS3 setup (with NS3's default parameters): L(d) = L0 + 10·γ·log10(d/d0).
type LogDistance struct {
	Exponent      float64 // path-loss exponent γ
	ReferenceDist float64 // d0, metres
	ReferenceLoss DB      // L0, loss at d0
}

// NewLogDistance returns the model with NS3's defaults: exponent 3.0 and
// 46.6777 dB loss at 1 m (Friis at 5.15 GHz; NS3 uses the same constant for
// 2.4 GHz setups by default, and the paper used the defaults).
func NewLogDistance() LogDistance {
	return LogDistance{Exponent: 3.0, ReferenceDist: 1.0, ReferenceLoss: 46.6777}
}

// Loss implements PathLossModel. Distances at or below the reference
// distance incur the reference loss.
func (m LogDistance) Loss(distance float64) DB {
	if distance <= m.ReferenceDist {
		return m.ReferenceLoss
	}
	return m.ReferenceLoss + DB(10*m.Exponent*math.Log10(distance/m.ReferenceDist))
}

// LinkGainMw returns the power, in mW, received at b from a sender at a
// that transmits txMw milliwatts under pl (nil is NewLogDistance). The
// medium's gain matrix and the scenario validator both use it.
func LinkGainMw(txMw float64, pl PathLossModel, a, b Position) float64 {
	if pl == nil {
		pl = NewLogDistance()
	}
	return txMw * DB(-pl.Loss(a.DistanceTo(b))).Ratio()
}
