package repro

// Engine executes Scenarios against pluggable channel Models. The two
// models are peers behind one interface, so the same Scenario value runs
// under either — the paper's method of pricing one workload two ways —
// and future models (a lossy channel, multiple access points) drop in
// without growing the API surface.

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/mac"
	"repro/internal/slotted"
)

// Model is a channel model: it prices a scenario's workload in that model's
// currency (abstract CW slots, or 802.11g microseconds). Implementations
// live in this package — Abstract and WiFi today — and must be deterministic
// given the scenario's options: equal scenarios produce equal Results.
//
// Not every model supports every workload; unsupported combinations return
// an error from run (best-of-k and continuous traffic need real time, tree
// splitting is defined on the abstract channel).
type Model interface {
	// Name is the stable identifier used in results and RNG stream labels
	// ("abstract", "wifi"). Renaming a model changes its random streams.
	Name() string

	// run executes the validated scenario with resolved options, returning
	// its kernel profile too (zero on models without an event kernel).
	// Implementations are in-package: run keeps the interface closed so the
	// RNG-label contract stays enforceable.
	run(ctx context.Context, s Scenario, o options) (Result, SimStats, error)
}

// Abstract returns the abstract slotted model (assumptions A0–A2): a
// collision costs one slot, time is not modelled. Payload, RTS/CTS, trace
// and config options do not apply.
func Abstract() Model { return abstractModel{} }

// WiFi returns the IEEE 802.11g DCF model with the paper's Table I
// parameters: a collision costs a full transmission plus an ACK timeout.
func WiFi() Model { return wifiModel{} }

// AbstractUnaligned returns the abstract slotted model with per-station
// contention windows instead of globally aligned ones — the MAC's window
// semantics priced in the abstract currency. It exists for the alignment
// ablation DESIGN.md documents; the paper's analysis assumes aligned
// windows, which Abstract implements.
func AbstractUnaligned() Model { return abstractModel{unaligned: true} }

// ErrNoProgress is the error of a single batch whose backoff schedule
// cannot resolve it, such as FIXED:2 at n = 64 on the abstract models: the
// run gives up after a fixed number of contention windows instead of
// spinning. Test for it with errors.Is.
var ErrNoProgress = slotted.ErrNoProgress

// errUnsupported formats the model × workload incompatibility error.
func errUnsupported(m Model, w Workload) error {
	return fmt.Errorf("repro: the %s model does not support the %s workload",
		m.Name(), w.workloadName())
}

// --- Abstract slotted model -------------------------------------------------

// abstractModel is the abstract slotted model. With unaligned set, stations
// keep per-station contention windows instead of globally aligned ones (the
// alignment ablation); tree splitting is defined on aligned windows only.
type abstractModel struct{ unaligned bool }

func (m abstractModel) Name() string {
	if m.unaligned {
		return "abstract-unaligned"
	}
	return "abstract"
}

func (m abstractModel) run(_ context.Context, s Scenario, o options) (Result, SimStats, error) {
	algo := s.Algorithm.String()
	var res slotted.Result
	switch s.workload().(type) {
	case SingleBatch:
		f, err := s.Algorithm.factory()
		if err != nil {
			return Result{}, SimStats{}, err
		}
		g := o.stream(fmt.Sprintf("%s|%s|n=%d", m.Name(), s.Algorithm, s.N))
		run := slotted.RunBatch
		if m.unaligned {
			run = slotted.RunBatchUnaligned
		}
		if res, err = run(s.N, f, g); err != nil {
			return Result{}, SimStats{}, fmt.Errorf("repro: %s: %w", s, err)
		}
	case TreeWorkload:
		if m.unaligned {
			return Result{}, SimStats{}, errUnsupported(m, s.workload())
		}
		algo = "TREE"
		res = slotted.RunTreeBatch(s.N, o.stream(fmt.Sprintf("tree|n=%d", s.N)))
	default:
		return Result{}, SimStats{}, errUnsupported(m, s.workload())
	}
	return Result{Batch: &BatchResult{
		N:             s.N,
		Model:         m.Name(),
		Algorithm:     algo,
		CWSlots:       res.CWSlots,
		Collisions:    res.Collisions,
		CWSlotsAtHalf: res.HalfSlots,
	}}, SimStats{}, nil
}

// --- IEEE 802.11g DCF model -------------------------------------------------

type wifiModel struct{}

func (wifiModel) Name() string { return "wifi" }

// materializeMACConfig resolves the effective MAC configuration of a wifi
// run from the workload and resolved options. It is the single source of
// truth shared by wifiModel.run and Scenario.Fingerprint, so the config a
// run executes with is exactly the config its fingerprint hashes.
func materializeMACConfig(w Workload, o options) mac.Config {
	cfg := mac.DefaultConfig()
	cfg.PayloadBytes = o.payload
	if _, bok := w.(BestOfKWorkload); !bok {
		// RTS/CTS does not apply to the best-of-k probe phase; the legacy
		// path never set it, so keeping it off there preserves byte-identical
		// configs across the migration.
		cfg.RTSCTS = o.rtscts
	}
	for _, tweak := range o.cfgTweaks {
		tweak(&cfg)
	}
	return cfg
}

func (wifiModel) tracer(o options) mac.Tracer {
	if o.tracer != nil {
		return o.tracer
	}
	return nil
}

// batchResult converts a MAC batch outcome run under cfg into the public
// BatchResult, for single batches and best-of-k alike.
func (m wifiModel) batchResult(cfg mac.Config, n int, algo string, res mac.Result) BatchResult {
	d := core.Decompose(cfg, res)
	return BatchResult{
		N:                 n,
		Model:             m.Name(),
		Algorithm:         algo,
		CWSlots:           res.CWSlots,
		Collisions:        res.Collisions,
		TotalTime:         res.TotalTime,
		HalfTime:          res.HalfTime,
		CWSlotsAtHalf:     res.CWSlotsAtHalf,
		MaxAckTimeouts:    res.MaxAckTimeouts,
		MaxAckTimeoutWait: res.MaxAckTimeoutWait,
		Captures:          res.Captures,
		Stations:          res.Stations,
		Decomposition:     &d,
	}
}

func (m wifiModel) run(_ context.Context, s Scenario, o options) (Result, SimStats, error) {
	cfg := materializeMACConfig(s.workload(), o)
	switch w := s.workload().(type) {
	case SingleBatch:
		f, err := s.Algorithm.factory()
		if err != nil {
			return Result{}, SimStats{}, err
		}
		g := o.stream(fmt.Sprintf("wifi|%s|n=%d", s.Algorithm, s.N))
		res := mac.RunBatch(cfg, s.N, f, g, m.tracer(o))
		b := m.batchResult(cfg, s.N, s.Algorithm.String(), res)
		return Result{Batch: &b}, res.Kernel, nil

	case BestOfKWorkload:
		g := o.stream(fmt.Sprintf("bok|k=%d|n=%d", w.K, s.N))
		res := mac.RunBestOfK(cfg, w.K, s.N, g, m.tracer(o))
		ests := slices.Clone(res.Estimates)
		slices.Sort(ests)
		return Result{BestOfK: &BestOfKResult{
			BatchResult:    m.batchResult(cfg, s.N, fmt.Sprintf("Best-of-%d", w.K), res.Result),
			MedianEstimate: ests[len(ests)/2],
			EstimationTime: res.EstimationTime,
		}}, res.Kernel, nil

	case ContinuousWorkload:
		f, err := s.Algorithm.factory()
		if err != nil {
			return Result{}, SimStats{}, err
		}
		proc, err := w.Arrivals.process()
		if err != nil {
			return Result{}, SimStats{}, err
		}
		g := o.stream(fmt.Sprintf("traffic|%s|%s|n=%d", s.Algorithm, proc.Name(), s.N))
		res := mac.RunContinuous(cfg, s.N, f, proc, w.Horizon, g, m.tracer(o))
		// A copy, so the Result does not keep res.Stations alive.
		t := res.TrafficSummary
		return Result{Traffic: &t}, res.Kernel, nil

	default:
		return Result{}, SimStats{}, errUnsupported(m, s.workload())
	}
}

// --- Engine -----------------------------------------------------------------

// Engine executes scenarios. The zero value is ready to use and sizes its
// worker pool to GOMAXPROCS; set Workers to cap parallelism. Engines are
// stateless and safe for concurrent use; attaching a Store adds shared
// state, but the Store itself is concurrency-safe.
type Engine struct {
	// Workers caps the parallelism of Sweep and RunMany (0 = GOMAXPROCS).
	// Run is always a single synchronous execution.
	Workers int

	// Store, when non-nil, memoizes grid execution: Sweep, SweepJSON,
	// Aggregate and RunMany serve cells whose (Scenario.Fingerprint, seed)
	// is already stored by replaying the persisted Result instead of
	// simulating, write misses through, and collapse identical in-flight
	// cells into one simulation. Streaming order, cell values, and reports
	// are bit-identical with or without a store. Run is always a direct
	// execution (it is the traced-run path, and a replay would skip trace
	// side effects); scenarios that cannot be fingerprinted run uncached.
	Store *Store

	// Admit, when non-nil, gates every simulator invocation of the grid
	// paths (Sweep, SweepJSON, RunMany, Aggregate): it is called just
	// before a cell simulates, and the release it returns when the
	// simulation finishes. Store replays and singleflight followers never
	// call it — admission budgets spend on simulations, not on cache
	// traffic — which is what lets a serving layer bound concurrent
	// simulation work globally while warm requests stay unthrottled
	// (internal/serve). An Admit error fails the cell with that error.
	// Admit must be safe for concurrent use; blocking implementations
	// should honor ctx so cancelled sweeps stop waiting for budget. Run
	// does not consult Admit (it is the synchronous single-execution path).
	Admit func(ctx context.Context) (release func(), err error)

	// Observer, when non-nil, receives a CellInfo for every completed grid
	// cell (Sweep, SweepJSON, RunMany, and the aggregation path built on
	// them): admit wait, store hit/miss, simulate and write-through
	// durations, and the run's deterministic kernel profile.
	// Observation is passive — cell values, streaming order, goldens, and
	// fingerprints are identical with or without one — and strictly
	// pay-for-use: a nil Observer takes the exact uninstrumented path, with
	// no wall-clock reads and no allocations. Implementations must be safe
	// for concurrent use. See observe.go.
	Observer Observer
}

// Run validates and executes one scenario synchronously. It returns
// ctx.Err() without running if the context is already cancelled; a started
// simulation always runs to completion (cancellation is checked between
// scenarios, not inside the discrete-event loop).
func (e *Engine) Run(ctx context.Context, s Scenario) (Result, error) {
	res, _, err := execute(ctx, s)
	return res, err
}

// execute is Engine.Run that also returns the run's kernel profile.
func execute(ctx context.Context, s Scenario) (Result, SimStats, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, SimStats{}, err
	}
	if err := s.Validate(); err != nil {
		return Result{}, SimStats{}, err
	}
	return s.Model.run(ctx, s, buildOptions(s.Options))
}
