package repro

// Scenario is the unified description of one experiment: a channel model, a
// contention-resolution algorithm, a batch size, and a workload. The same
// Scenario runs unchanged under every Model, which is the paper's whole
// method — price the identical workload under two cost models and compare.
// Engine (engine.go) executes scenarios; Engine.Sweep (sweep.go) fans grids
// of them across a worker pool.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/mac"
	"repro/internal/phy"
)

// --- Algorithm --------------------------------------------------------------

// Algorithm is a validated contention-resolution algorithm. The zero value
// is invalid; construct one with ParseAlgorithm, MustAlgorithm or
// Polynomial, or pick from PaperAlgorithmList.
//
// Algorithm is a comparable value type: two Algorithms are equal exactly
// when their spec strings are equal. The spec string is also the identity
// used in RNG stream labels, so equal Algorithms reproduce equal runs.
type Algorithm struct {
	spec string
}

// ParseAlgorithm validates a spec string against the backoff registry and
// returns its typed Algorithm. Accepted forms are the paper algorithms
// ("BEB", "LB", "LLB", "STB"), "FIXED:<w>" with w >= 1, and "POLY:<p>" with
// p >= 1.
func ParseAlgorithm(spec string) (Algorithm, error) {
	if _, ok := backoff.Registered(spec); !ok {
		return Algorithm{}, fmt.Errorf("repro: unknown algorithm %q (want one of %v, FIXED:<w>, POLY:<p>)",
			spec, Algorithms())
	}
	return Algorithm{spec: spec}, nil
}

// MustAlgorithm is ParseAlgorithm that panics on error; for package-level
// variables and tests.
func MustAlgorithm(spec string) Algorithm {
	a, err := ParseAlgorithm(spec)
	if err != nil {
		panic(err)
	}
	return a
}

// Polynomial returns polynomial backoff with exponent p (clamped to >= 1),
// the ablation point between fixed and exponential growth.
func Polynomial(p float64) Algorithm {
	if p < 1 {
		p = 1
	}
	return Algorithm{spec: fmt.Sprintf("POLY:%g", p)}
}

// PaperAlgorithmList returns the four paper algorithms (BEB, LB, LLB, STB)
// as typed values in presentation order.
func PaperAlgorithmList() []Algorithm {
	names := backoff.PaperAlgorithmNames()
	out := make([]Algorithm, len(names))
	for i, n := range names {
		out[i] = Algorithm{spec: n}
	}
	return out
}

// String returns the spec string the Algorithm was built from, e.g. "BEB" or
// "FIXED:64". ParseAlgorithm(a.String()) round-trips.
func (a Algorithm) String() string { return a.spec }

// factory resolves the algorithm in the backoff registry, revalidating the
// spec so that zero or hand-rolled values fail loudly rather than silently.
func (a Algorithm) factory() (backoff.Factory, error) {
	f, ok := backoff.Registered(a.spec)
	if !ok {
		return nil, fmt.Errorf("repro: unknown algorithm %q (want one of %v, FIXED:<w>, POLY:<p>)",
			a.spec, Algorithms())
	}
	return f, nil
}

// --- Workload ---------------------------------------------------------------

// Workload selects what the scenario's n stations do. Implementations are
// SingleBatch, BestOfKWorkload, TreeWorkload, and ContinuousWorkload; a nil
// Scenario.Workload means SingleBatch.
type Workload interface {
	// workloadName is the stable identifier used in error messages and
	// progress output. The set of workloads is closed: models dispatch on
	// the concrete type.
	workloadName() string
}

// SingleBatch is the paper's core workload: all n stations wake with one
// packet each at t = 0 and contend until every packet is delivered.
type SingleBatch struct{}

func (SingleBatch) workloadName() string { return "single-batch" }

// BestOfKWorkload runs the paper's Section VI alternative: stations first
// estimate n with k rounds of channel probes, then run fixed backoff with
// the estimate as their window. The scenario's Algorithm is ignored (the
// workload prescribes its own two phases). WiFi model only.
type BestOfKWorkload struct {
	// K is the number of estimation rounds (the paper uses 3 and 5).
	K int
}

func (BestOfKWorkload) workloadName() string { return "best-of-k" }

// TreeWorkload resolves the batch with classic binary tree-splitting
// (Capetanakis), the non-backoff baseline. The scenario's Algorithm is
// ignored. Abstract model only.
type TreeWorkload struct{}

func (TreeWorkload) workloadName() string { return "tree" }

// ContinuousWorkload runs the MAC under ongoing arrivals for a fixed
// horizon instead of a single batch. WiFi model only. The paper's Table I
// CWmin = 1 causes channel capture under saturation; pass WithConfig to
// raise CWMin (16 is the 802.11 standard) for steady-state studies.
type ContinuousWorkload struct {
	// Arrivals selects the packet-arrival process (Poisson, Periodic,
	// Saturated, BurstyPareto).
	Arrivals ArrivalSpec
	// Horizon is the simulated duration.
	Horizon time.Duration
}

func (ContinuousWorkload) workloadName() string { return "continuous" }

// --- Scenario ---------------------------------------------------------------

// Scenario composes one experiment. The zero value is invalid: Model and N
// are required, and Algorithm is required unless the workload prescribes its
// own (best-of-k, tree).
type Scenario struct {
	// Model is the channel model pricing the workload: Abstract() or WiFi().
	Model Model
	// Algorithm is the contention-resolution algorithm under test.
	Algorithm Algorithm
	// N is the number of stations.
	N int
	// Workload is what the stations do; nil means SingleBatch.
	Workload Workload
	// Options carries the run options: WithSeed, WithRawSeed, WithPayload,
	// WithRTSCTS, WithTrace, WithConfig.
	Options []Option
}

// workload returns the effective workload, defaulting nil to SingleBatch.
func (s Scenario) workload() Workload {
	if s.Workload == nil {
		return SingleBatch{}
	}
	return s.Workload
}

// algorithmRequired reports whether the workload consults the scenario's
// Algorithm at all.
func (s Scenario) algorithmRequired() bool {
	switch s.workload().(type) {
	case BestOfKWorkload, TreeWorkload:
		return false
	}
	return true
}

// maxPayloadBytes is the 802.11 maximum MSDU. A larger payload is not a
// frame the standard can send, and far larger ones overflow the
// frame-duration arithmetic.
const maxPayloadBytes = 2304

// Validate checks the scenario without running it. Engine.Run validates
// automatically; Validate is for building grids up front.
func (s Scenario) Validate() error {
	if s.Model == nil {
		return fmt.Errorf("repro: scenario needs a Model (Abstract() or WiFi())")
	}
	if s.N < 1 {
		return fmt.Errorf("repro: n must be >= 1, got %d", s.N)
	}
	// The materialized config, so a WithConfig tweak is checked too. The
	// abstract models ignore the MAC config and leave cfg zero.
	var cfg mac.Config
	if s.Model.Name() == "wifi" {
		cfg = materializeMACConfig(s.workload(), buildOptions(s.Options))
		if err := validateMACConfig(cfg, s.N); err != nil {
			return err
		}
	}
	if s.algorithmRequired() {
		if _, err := s.Algorithm.factory(); err != nil {
			return err
		}
	}
	switch w := s.workload().(type) {
	case SingleBatch:
		if s.neverResolves(cfg) {
			return fmt.Errorf("repro: %s with n=%d never resolves: every station transmits in the one slot of each window",
				s.Algorithm, s.N)
		}
	case TreeWorkload:
	case BestOfKWorkload:
		if w.K < 1 {
			return fmt.Errorf("repro: need n >= 1 and k >= 1 (got n=%d k=%d)", s.N, w.K)
		}
	case ContinuousWorkload:
		if w.Horizon <= 0 {
			return fmt.Errorf("repro: horizon must be positive, got %v", w.Horizon)
		}
		if _, err := w.Arrivals.process(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("repro: unknown workload %T", w)
	}
	return nil
}

// validateMACConfig rejects the values the simulator cannot run: a
// negative duration schedules an event in the past, a negative frame size
// gives a negative airtime, a CWMax below 1 leaves no backoff slot to draw,
// a FrameLossProb of 1 or more (or NaN) loses every frame, and a radio
// setting or layout of n stations that is not finite makes gains NaN or
// infinite, or leaves a station that cannot reach the AP (see
// validateRadio).
func validateMACConfig(cfg mac.Config, n int) error {
	if p := cfg.PayloadBytes; p < 0 || p > maxPayloadBytes {
		return fmt.Errorf("repro: payload must be in [0, %d] bytes (the 802.11 maximum MSDU), got %d", maxPayloadBytes, p)
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"SlotTime", cfg.SlotTime}, {"SIFS", cfg.SIFS}, {"DIFS", cfg.DIFS}, {"EIFS", cfg.EIFS},
		{"AckTimeout", cfg.AckTimeout}, {"AbortOverlapAfter", cfg.Radio.AbortOverlapAfter},
	} {
		if d.v < 0 {
			return fmt.Errorf("repro: MAC %s must be >= 0, got %v", d.name, d.v)
		}
	}
	for _, b := range []struct {
		name string
		v    int
	}{
		{"OverheadBytes", cfg.OverheadBytes}, {"RTSBytes", cfg.RTSBytes},
		{"CTSBytes", cfg.CTSBytes}, {"AckBytes", cfg.AckBytes},
	} {
		if b.v < 0 {
			return fmt.Errorf("repro: MAC %s must be >= 0, got %d", b.name, b.v)
		}
	}
	if cfg.CWMax < 1 {
		return fmt.Errorf("repro: MAC CWMax must be >= 1, got %d", cfg.CWMax)
	}
	if p := cfg.Radio.FrameLossProb; !(p >= 0 && p < 1) {
		return fmt.Errorf("repro: MAC Radio.FrameLossProb must be in [0, 1), got %v", p)
	}
	return validateRadio(cfg, n)
}

// validateRadio rejects the radio settings and layouts whose link gains are
// not finite: a NaN or infinite power level, or one whose milliwatt value
// overflows; LogDistance parameters that are not finite, or a reference
// distance <= 0; and a layout that does not give exactly n finite
// positions. The medium's reception verdicts rely on every gain being
// finite and >= 0 (phy.Medium.decodes). And a NaN gain or a +Inf
// carrier-sense threshold leaves every node deaf to every other, so no
// frame is acknowledged and the run spins until its event budget panics.
//
// The same spin follows from finite settings under which a lone frame
// never gets through, such as a carrier-sense threshold above every link
// or a noise floor that no signal clears. So every station's link to the
// AP must be sensed, and a frame on it must decode alone at both the data
// and the control rate. Link gains are symmetric, so one gain per station
// covers the frame and its acknowledgement. This is necessary for a run
// to end, not sufficient.
func validateRadio(cfg mac.Config, n int) error {
	r := cfg.Radio
	for _, p := range []struct {
		name string
		v    phy.DBm
	}{
		{"TxPower", r.TxPower}, {"NoiseFloor", r.NoiseFloor}, {"CSThreshold", r.CSThreshold},
	} {
		if !isFinite(float64(p.v)) || !isFinite(p.v.MilliWatt()) {
			return fmt.Errorf("repro: MAC Radio.%s must be a finite power with a finite mW value, got %v dBm", p.name, float64(p.v))
		}
	}
	if pl, ok := r.PathLoss.(phy.LogDistance); ok {
		if !isFinite(pl.Exponent) || !isFinite(pl.ReferenceDist) || !isFinite(float64(pl.ReferenceLoss)) || pl.ReferenceDist <= 0 {
			return fmt.Errorf("repro: MAC Radio.PathLoss needs finite parameters and ReferenceDist > 0, got %+v", pl)
		}
	}
	for _, rate := range []struct {
		name string
		v    phy.Rate
	}{{"DataRate", cfg.DataRate}, {"ControlRate", cfg.ControlRate}} {
		if rate.v < phy.Rate6Mbps || rate.v > phy.Rate54Mbps {
			return fmt.Errorf("repro: MAC %s must be an 802.11g rate, got %d", rate.name, int(rate.v))
		}
	}
	pos := phy.GridPosition
	if cfg.Layout != nil {
		ps := cfg.Layout(n)
		if len(ps) != n {
			return fmt.Errorf("repro: MAC Layout(%d) gave %d positions, want %d", n, len(ps), n)
		}
		for i, p := range ps {
			if !isFinite(p.X) || !isFinite(p.Y) {
				return fmt.Errorf("repro: MAC Layout(%d) position %d is not finite: %v", n, i, p)
			}
		}
		pos = func(i int) phy.Position { return ps[i] }
	} else if d := defaultGrid(); n <= d.reach && sameLinks(cfg, d.cfg) {
		return nil
	}
	_, err := unreachable(cfg, n, pos)
	return err
}

// defaultGrid is the lone-link walk over the paper's grid under the default
// radio, done once: the walk costs a math.Pow per station, and nearly every
// scenario, each served one included, uses that radio. Grid stations
// 0..reach-1 reach the AP (reach is 1840).
var defaultGrid = sync.OnceValue(func() (d struct {
	cfg   mac.Config
	reach int
}) {
	d.cfg = mac.DefaultConfig()
	d.reach, _ = unreachable(d.cfg, math.MaxInt, phy.GridPosition)
	return d
})

// sameLinks reports whether a and b give every lone link the same verdict.
func sameLinks(a, b mac.Config) bool {
	ra, rb := a.Radio, b.Radio
	return ra.TxPower == rb.TxPower && ra.NoiseFloor == rb.NoiseFloor && ra.CSThreshold == rb.CSThreshold &&
		ra.PathLoss == rb.PathLoss && a.DataRate == b.DataRate && a.ControlRate == b.ControlRate
}

// unreachable walks stations 0..n-1, station i at pos(i), and returns the
// first whose lone frame the AP does not sense or decode, with the reason,
// or n and nil when every one gets through. The walk stops at that station,
// so a grid far past the AP's range ends early.
func unreachable(cfg mac.Config, n int, pos func(int) phy.Position) (int, error) {
	r := cfg.Radio
	txMw, csMw, noiseMw := r.TxPower.MilliWatt(), r.CSThreshold.MilliWatt(), r.NoiseFloor.MilliWatt()
	need := max(cfg.DataRate.MinSINRRatio(), cfg.ControlRate.MinSINRRatio())
	ap := phy.APPosition()
	for i := range n {
		p := pos(i)
		g := phy.LinkGainMw(txMw, r.PathLoss, p, ap)
		if !(g >= csMw) {
			return i, fmt.Errorf("repro: MAC station %d at %v is not heard by the AP: it receives %.3g dBm, below the %v dBm carrier-sense threshold",
				i, p, 10*math.Log10(g), float64(r.CSThreshold))
		}
		if !(g/noiseMw >= need) {
			return i, fmt.Errorf("repro: MAC station %d at %v cannot reach the AP even alone: SNR %.3g dB is below the %.3g dB its rates need",
				i, p, 10*math.Log10(g/noiseMw), 10*math.Log10(need))
		}
	}
	return n, nil
}

// neverResolves reports a single batch of n >= 2 stations whose every
// window is 1 slot wide: they collide in every window forever. On the
// abstract models that is a constant window of 1; the wifi model clamps
// windows into [CWMin, CWMax] of its materialized config cfg, so there
// CWMax <= 1 is stuck for any algorithm, and a window of 1 only while
// CWMin <= 1.
func (s Scenario) neverResolves(cfg mac.Config) bool {
	if s.N < 2 {
		return false
	}
	wifi := s.Model.Name() == "wifi"
	if wifi && cfg.CWMax <= 1 {
		return true
	}
	// The prefix test keeps the per-cell check allocation-free for every
	// other algorithm; the policy name then decides spellings like FIXED:01.
	if !strings.HasPrefix(s.Algorithm.spec, "FIXED:") {
		return false
	}
	f, err := s.Algorithm.factory()
	if err != nil || f().Name() != backoff.NewFixed(1).Name() {
		return false
	}
	return !wifi || cfg.CWMin <= 1
}

// WithOptions returns a copy of the scenario with opts appended. Later
// options win, so s.WithOptions(WithSeed(7)) reseeds a scenario that
// already had a seed.
func (s Scenario) WithOptions(opts ...Option) Scenario {
	merged := make([]Option, 0, len(s.Options)+len(opts))
	merged = append(merged, s.Options...)
	merged = append(merged, opts...)
	s.Options = merged
	return s
}

// String renders a compact human-readable identity for progress output,
// e.g. "wifi/BEB/n=150/single-batch".
func (s Scenario) String() string {
	model := "<nil>"
	if s.Model != nil {
		model = s.Model.Name()
	}
	algo := s.Algorithm.String()
	if algo == "" {
		algo = "-"
	}
	return fmt.Sprintf("%s/%s/n=%d/%s", model, algo, s.N, s.workload().workloadName())
}

// --- Fingerprint ------------------------------------------------------------

// storeSchemaVersion versions both the fingerprint encoding and the stored
// Result payload layout. Bump it when either changes shape — old store
// records then simply never match, instead of replaying under a stale
// interpretation.
const storeSchemaVersion = "v1"

// Fingerprint returns the scenario's canonical content address: a stable
// hash of everything that determines its Result besides the seed — the
// model name, the workload and its parameters, N, the algorithm (only when
// the workload consults it), the raw-seed flag, and, for the wifi model,
// the fully materialized MAC configuration (station layout included). Two
// scenarios with equal fingerprints run with equal seeds produce
// bit-identical Results, which is what lets the result store replay instead
// of simulate; the store keys every record by (fingerprint, seed).
//
// The encoding is versioned by storeSchemaVersion and pinned by a golden
// test, so fingerprints are stable across processes and releases; an
// intentional change to either the encoding or the Result layout must bump
// the version. Options that cannot affect the Result (WithSeed, WithTrace,
// and — under the abstract models, which have no MAC — payload, RTS/CTS and
// config tweaks) are excluded, so equal work shares one address.
//
// Scenarios with no canonical encoding return an error: a nil Model, an
// unknown model or workload, or a MAC configuration carrying a custom
// path-loss model this package cannot serialize. The engine runs such
// scenarios without caching them.
func (s Scenario) Fingerprint() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "repro/result-store %s\n", storeSchemaVersion)

	if s.Model == nil {
		return "", fmt.Errorf("repro: cannot fingerprint a scenario without a Model")
	}
	model := s.Model.Name()
	fmt.Fprintf(&b, "model=%s\n", model)
	fmt.Fprintf(&b, "n=%d\n", s.N)

	if s.algorithmRequired() {
		fmt.Fprintf(&b, "algo=%s\n", s.Algorithm.String())
	}

	switch w := s.workload().(type) {
	case SingleBatch:
		b.WriteString("workload=single-batch\n")
	case TreeWorkload:
		b.WriteString("workload=tree\n")
	case BestOfKWorkload:
		fmt.Fprintf(&b, "workload=best-of-k k=%d\n", w.K)
	case ContinuousWorkload:
		a := w.Arrivals
		fmt.Fprintf(&b, "workload=continuous arrivals=%s rate=%g gap=%d alpha=%g burst=%g horizon=%d\n",
			a.kind, a.rate, int64(a.gap), a.alpha, a.burst, int64(w.Horizon))
	default:
		return "", fmt.Errorf("repro: cannot fingerprint unknown workload %T", w)
	}

	o := buildOptions(s.Options)
	fmt.Fprintf(&b, "rawseed=%t\n", o.rawSeed)

	switch model {
	case "abstract", "abstract-unaligned":
		// The abstract models consume only (algorithm, n, stream); payload,
		// RTS/CTS and MAC config tweaks do not reach them.
	case "wifi":
		if err := writeMACConfig(&b, materializeMACConfig(s.workload(), o), s.N); err != nil {
			return "", err
		}
	default:
		return "", fmt.Errorf("repro: cannot fingerprint unknown model %q", model)
	}

	sum := sha256.Sum256([]byte(b.String()))
	return storeSchemaVersion + ":" + hex.EncodeToString(sum[:]), nil
}

// writeMACConfig encodes every result-affecting field of a materialized MAC
// configuration. Fields are written explicitly — scenario_test.go pins the
// field counts of mac.Config and phy.Config, so growing either type forces
// a conscious update here (and a storeSchemaVersion bump).
func writeMACConfig(b *strings.Builder, cfg mac.Config, n int) error {
	fmt.Fprintf(b, "mac: datarate=%d controlrate=%d slot=%d sifs=%d difs=%d eifs=%d ackto=%d payload=%d overhead=%d cwmin=%d cwmax=%d rtscts=%t rtsbytes=%d ctsbytes=%d ackbytes=%d maxevents=%d\n",
		cfg.DataRate, cfg.ControlRate, int64(cfg.SlotTime), int64(cfg.SIFS), int64(cfg.DIFS),
		int64(cfg.EIFS), int64(cfg.AckTimeout), cfg.PayloadBytes, cfg.OverheadBytes,
		cfg.CWMin, cfg.CWMax, cfg.RTSCTS, cfg.RTSBytes, cfg.CTSBytes, cfg.AckBytes, cfg.MaxEvents)
	r := cfg.Radio
	fmt.Fprintf(b, "radio: txpower=%g noise=%g cs=%g abort=%d lossprob=%g lossseed=%d\n",
		float64(r.TxPower), float64(r.NoiseFloor), float64(r.CSThreshold),
		int64(r.AbortOverlapAfter), r.FrameLossProb, r.LossSeed)

	switch pl := r.PathLoss.(type) {
	case nil:
		// The medium defaults a nil model to NewLogDistance(); encode the
		// default it resolves to, so nil and the explicit default share an
		// address.
		d := phy.NewLogDistance()
		fmt.Fprintf(b, "pathloss: logdist exp=%g refdist=%g refloss=%g\n",
			d.Exponent, d.ReferenceDist, float64(d.ReferenceLoss))
	case phy.LogDistance:
		fmt.Fprintf(b, "pathloss: logdist exp=%g refdist=%g refloss=%g\n",
			pl.Exponent, pl.ReferenceDist, float64(pl.ReferenceLoss))
	default:
		return fmt.Errorf("repro: cannot fingerprint custom path-loss model %T", pl)
	}

	if cfg.Layout == nil {
		b.WriteString("layout: grid\n")
	} else {
		// Layouts must be deterministic (the simulator requires it), so the
		// materialized positions are the layout's canonical form.
		b.WriteString("layout:")
		for _, p := range cfg.Layout(n) {
			fmt.Fprintf(b, " %g,%g", p.X, p.Y)
		}
		b.WriteString("\n")
	}
	return nil
}

// --- Result -----------------------------------------------------------------

// Result is the outcome of one scenario. Exactly one field is non-nil,
// matching the workload: Batch for single-batch and tree runs, BestOfK for
// best-of-k, Traffic for continuous runs.
type Result struct {
	Batch   *BatchResult
	BestOfK *BestOfKResult
	Traffic *TrafficResult
}
