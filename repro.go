// Package repro is the public API of the reproduction of Anderton & Young,
// "Is Our Model for Contention Resolution Wrong? Confronting the Cost of
// Collisions" (SPAA 2017).
//
// The API is built around three ideas:
//
//   - Model: a pluggable channel model pricing the workload. Abstract() is
//     the slotted model of the algorithmic literature (assumptions A0–A2,
//     a collision costs one slot); WiFi() is a from-scratch IEEE 802.11g
//     DCF simulator, where a collision costs a full transmission plus an
//     ACK timeout — the mis-priced cost the paper identifies.
//   - Scenario: one experiment — a Model, a typed Algorithm, a batch size
//     N, and a Workload (single batch, best-of-k size estimation, tree
//     splitting, or continuous traffic).
//   - Engine: executes scenarios, serially with Run or fanned across a
//     worker pool with Sweep/RunMany, deterministically either way.
//
// Run the same single-batch scenario on both models and the paper's
// headline reversal appears: algorithms that beat binary exponential
// backoff on contention-window slots lose to it on total time.
//
//	var eng repro.Engine
//	s := repro.Scenario{Model: repro.WiFi(), Algorithm: repro.MustAlgorithm("BEB"), N: 100}
//	res, _ := eng.Run(context.Background(), s.WithOptions(repro.WithSeed(1)))
//	fmt.Println(res.Batch.TotalTime, res.Batch.CWSlots, res.Batch.Collisions)
//
//	// Swap the model, keep everything else: the other half of the story.
//	s.Model = repro.Abstract()
//
//	// Grids run in parallel; cells stream back in stable order.
//	for cell := range eng.Sweep(ctx, scenarios, repro.Seeds(1, 20)) {
//		...
//	}
//
//	// Or let the engine aggregate the grid the way the paper reports its
//	// figures — per-scenario medians with 95% CIs after the IQR outlier
//	// filter (aggregate.go).
//	rep, _ := eng.Aggregate(ctx, scenarios, repro.Seeds(1, 30),
//		repro.MakespanSlots(), repro.TotalTime())
//	for _, row := range rep.Rows {
//		fmt.Println(row.Label, row.Summaries[0].Median, row.Summaries[1].Median)
//	}
//
//	// Runs are pure functions of (scenario, seed), so grids memoize: an
//	// engine carrying a Store replays cells it has seen before instead of
//	// simulating them (store.go), keyed by Scenario.Fingerprint.
//	st, _ := repro.OpenStore("results-store")
//	cached := repro.Engine{Store: st}
//	rep2, _ := cached.Aggregate(ctx, scenarios, repro.Seeds(1, 30),
//		repro.MakespanSlots(), repro.TotalTime()) // rerun: bit-identical, zero simulations
//
// See DESIGN.md for the system layering and EXPERIMENTS.md for the
// reproduced figures.
package repro

import (
	"time"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/mac"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Algorithms returns the four paper algorithms' names in presentation
// order; PaperAlgorithmList returns the same set as typed values.
func Algorithms() []string { return backoff.PaperAlgorithmNames() }

// BatchResult is the unified outcome of a single-batch run on either
// channel model.
type BatchResult struct {
	// N is the batch size.
	N int
	// Model is "abstract" or "wifi".
	Model string
	// Algorithm is the contention-resolution algorithm's name.
	Algorithm string
	// CWSlots is the contention-window slots consumed (the metric the
	// algorithmic literature optimizes).
	CWSlots int
	// Collisions is the number of disjoint collisions (the paper's C_A).
	Collisions int
	// TotalTime is wall-clock channel time until the last packet finished;
	// zero under the abstract model, which has no notion of real time.
	TotalTime time.Duration
	// HalfTime is the time at which half the packets had finished (wifi).
	HalfTime time.Duration
	// CWSlotsAtHalf is the CW-slot count when half the packets had finished.
	CWSlotsAtHalf int
	// MaxAckTimeouts is the worst per-station ACK-timeout count (wifi).
	MaxAckTimeouts int
	// MaxAckTimeoutWait is the total time the station with the most ACK
	// timeouts spent waiting them out (wifi; paper Figure 12).
	MaxAckTimeoutWait time.Duration
	// Captures counts frames decoded despite overlapping interference.
	// Zero on the paper's grid layout; non-zero only under ablation
	// layouts with large receive-power spreads (wifi).
	Captures int
	// Stations holds the per-station counters (wifi).
	Stations []StationStats
	// Decomposition splits total time per the paper's Section III-B (wifi).
	Decomposition *core.Decomposition
}

// StationStats aliases the MAC's per-station counters (attempts, ACK
// timeouts and their waits, finish time, airtime) so BatchResult can carry
// them through the public API.
type StationStats = mac.StationStats

// options collects the resolved functional options of a run.
type options struct {
	seed      uint64
	rawSeed   bool
	payload   int
	rtscts    bool
	tracer    *trace.Recorder
	cfgTweaks []func(*mac.Config)
}

// stream builds the run's RNG stream: normally derived from the seed via
// the model's label (so equal seeds decorrelate across scenarios), or the
// seed consumed verbatim under WithRawSeed.
func (o options) stream(label string) *rng.Source {
	if o.rawSeed {
		return rng.New(o.seed)
	}
	return rng.New(rng.DeriveSeed(o.seed, label))
}

// Option configures a run through Scenario.Options.
type Option func(*options)

// WithSeed fixes the random seed; runs are deterministic given (scenario,
// seed). Engine.Sweep overrides the seed per grid cell.
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithRawSeed makes the model consume the run's seed verbatim as its RNG
// stream seed instead of deriving a per-(model, algorithm, n) stream from
// it. It serves the figure regenerator (internal/experiments), which
// derives its own per-(series, point, trial) streams and hands each to the
// engine with WithSeed. Equal raw seeds produce correlated runs across
// different scenarios, so other code should keep the default derivation
// and let the engine decorrelate.
func WithRawSeed() Option { return func(o *options) { o.rawSeed = true } }

// WithPayload sets the application payload size in bytes (default 64, the
// paper's small-packet configuration; 1024 is its large-packet one).
func WithPayload(bytes int) Option { return func(o *options) { o.payload = bytes } }

// WithRTSCTS enables the RTS/CTS handshake (wifi model only).
func WithRTSCTS() Option { return func(o *options) { o.rtscts = true } }

// WithTrace records per-station MAC events into rec for timeline rendering
// (wifi model only). Traced scenarios run through Engine.Run; Engine.Sweep
// and Engine.RunMany reject them, since concurrent cells would race on the
// recorder.
func WithTrace(rec *trace.Recorder) Option { return func(o *options) { o.tracer = rec } }

// MACConfig aliases the full 802.11g DCF parameter set (Table I defaults)
// so API users can name it in WithConfig tweaks.
type MACConfig = mac.Config

// WithConfig applies an arbitrary tweak to the MAC configuration before the
// run (wifi model only); the escape hatch for protocol ablations.
func WithConfig(tweak func(*MACConfig)) Option {
	return func(o *options) { o.cfgTweaks = append(o.cfgTweaks, tweak) }
}

func buildOptions(opts []Option) options {
	o := options{payload: 64}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// BestOfKResult reports a size-estimation run (paper Section VI).
type BestOfKResult struct {
	BatchResult
	// MedianEstimate is the batch's median estimate of n (Figure 18).
	MedianEstimate int
	// EstimationTime is the fixed cost of the probing phase.
	EstimationTime time.Duration
}
