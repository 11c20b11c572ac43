package phy

import "time"

// Rate identifies an 802.11g ERP-OFDM modulation-and-coding rate.
type Rate int

// The eight ERP-OFDM rates of IEEE 802.11g.
const (
	Rate6Mbps Rate = iota
	Rate9Mbps
	Rate12Mbps
	Rate18Mbps
	Rate24Mbps
	Rate36Mbps
	Rate48Mbps
	Rate54Mbps
)

// ofdmRate captures the per-rate OFDM constants from IEEE 802.11 Table 17-4:
// data bits per 4 µs symbol and the SINR (dB) the receiver needs to decode.
//
// The decoding thresholds are receiver-sensitivity-derived operating points
// chosen so that (a) every clean frame across the paper's 40 m grid decodes
// (clean-channel SNR at the farthest corner is ~20 dB at default power) and
// (b) no contending station can capture over another (the worst-case
// received-power spread inside the grid is < 8 dB). See package comment.
type ofdmRate struct {
	name    string
	ndbps   int // data bits per OFDM symbol
	minSINR DB  // decoding threshold
}

var ofdmRates = [...]ofdmRate{
	Rate6Mbps:  {"6Mbps", 24, 4},
	Rate9Mbps:  {"9Mbps", 36, 5},
	Rate12Mbps: {"12Mbps", 48, 7},
	Rate18Mbps: {"18Mbps", 72, 9},
	Rate24Mbps: {"24Mbps", 96, 12},
	Rate36Mbps: {"36Mbps", 144, 15},
	Rate48Mbps: {"48Mbps", 192, 17},
	Rate54Mbps: {"54Mbps", 216, 18},
}

// String returns the conventional name of the rate, e.g. "54Mbps".
func (r Rate) String() string { return ofdmRates[r].name }

// NDBPS returns the number of data bits carried per 4 µs OFDM symbol.
func (r Rate) NDBPS() int { return ofdmRates[r].ndbps }

// sinrRatios precomputes each rate's linear decoding threshold. The
// reception decision runs once per (frame, receiver) — the simulator's
// hottest floating-point path — and math.Pow dominated its profile when
// converted on every call.
var sinrRatios = func() (out [len(ofdmRates)]float64) {
	for r, t := range ofdmRates {
		out[r] = t.minSINR.Ratio()
	}
	return out
}()

// MinSINRRatio returns the SINR threshold required to decode a frame sent
// at this rate, as a precomputed linear power ratio.
func (r Rate) MinSINRRatio() float64 { return sinrRatios[r] }

// OFDM timing constants for 802.11g (ERP-OFDM, long preamble option used by
// the paper: a 20 µs preamble, Table I).
const (
	PreambleDuration = 20 * time.Microsecond // PLCP preamble + header
	SymbolDuration   = 4 * time.Microsecond
	serviceBits      = 16 // PLCP SERVICE field
	tailBits         = 6  // convolutional-code tail
)

// FrameDuration returns the on-air time of a PSDU of payloadBytes octets at
// rate r: the 20 µs preamble plus ceil((16 + 8·bytes + 6)/NDBPS) OFDM
// symbols of 4 µs (IEEE 802.11 equation 17-11).
func FrameDuration(r Rate, payloadBytes int) time.Duration {
	bits := serviceBits + 8*payloadBytes + tailBits
	ndbps := r.NDBPS()
	symbols := (bits + ndbps - 1) / ndbps
	return PreambleDuration + time.Duration(symbols)*SymbolDuration
}

// PayloadDuration returns the duration of the data symbols alone (without
// preamble), the quantity the paper calls "transmission time ... plus the
// associated 20 µs preamble".
func PayloadDuration(r Rate, payloadBytes int) time.Duration {
	return FrameDuration(r, payloadBytes) - PreambleDuration
}
