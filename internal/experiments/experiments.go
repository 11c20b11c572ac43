// Package experiments defines one regenerator per figure and table of the
// paper's evaluation. Each produces a repro.Table whose series mirror the
// paper's plotted lines; cmd/figures prints and saves them, the root
// bench_test.go wraps them in benchmarks, and the integration tests assert
// the paper's qualitative results on quick configurations.
package experiments

import (
	"context"
	"fmt"

	"repro"
	"repro/internal/backoff"
	"repro/internal/mac"
)

// Config tunes experiment fidelity. Zero values select each experiment's
// paper-faithful default; tests and benches use Quick.
type Config struct {
	// Trials per point (0 = the figure's paper default).
	Trials int
	// NMax caps the swept batch size (0 = figure default).
	NMax int
	// NStep is the sweep step (0 = figure default).
	NStep int
	// Seed drives all randomness; the default 0 is a valid seed.
	Seed uint64
	// Ctx cancels sweeps mid-run (nil = context.Background()). Generators
	// invoked directly panic on cancellation; run them through Run, which
	// converts that into an ordinary error.
	Ctx context.Context
	// Engine runs every sweep (nil = a zero Engine). cmd/figures sets its
	// Workers, its Store (-cache: interrupted runs resume) and its Observer
	// (-progress); results are identical either way.
	Engine *repro.Engine
}

// ctx returns the effective context.
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// cancelled carries a context cancellation out of a generator's panic path;
// Run converts it into the error it wraps.
type cancelled struct{ err error }

// checkCancelled panics with the cancellation sentinel when err was caused
// by the config's context being cancelled.
func (c Config) checkCancelled(err error) {
	if err != nil && c.ctx().Err() != nil {
		panic(cancelled{c.ctx().Err()})
	}
}

// recoverCancelled converts a cancelled-sentinel panic into *err, repanics
// anything else, and is a no-op when nothing panicked. Deferred by Run and
// RunTrace, the two ctx-aware generator entry points.
func recoverCancelled(err *error) {
	if r := recover(); r != nil {
		stop, ok := r.(cancelled)
		if !ok {
			panic(r)
		}
		*err = stop.err
	}
}

// Run regenerates one experiment under ctx: mid-run cancellation (an
// interrupted figure run) comes back as an ordinary error instead of the
// panic a directly-invoked generator raises for what would otherwise be a
// static-definition bug.
func Run(ctx context.Context, g Generator, c Config) (tab repro.Table, err error) {
	c.Ctx = ctx
	defer recoverCancelled(&err)
	return g.Run(c), nil
}

// Quick returns a configuration small enough for unit tests and benchmarks
// while preserving every figure's qualitative shape.
func Quick() Config {
	return Config{Trials: 7, NMax: 60, NStep: 25, Seed: 1}
}

func (c Config) trials(def int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	return def
}

func (c Config) nAxis(defMax, defStep int) []float64 {
	max, step := defMax, defStep
	if c.NMax > 0 {
		max = c.NMax
	}
	if c.NStep > 0 {
		step = c.NStep
	}
	lo := step
	if lo > max {
		lo = max
	}
	return intXs(lo, max, step)
}

// intXs builds the x-axis lo, lo+step, ..., hi (inclusive when aligned).
func intXs(lo, hi, step int) []float64 {
	if step <= 0 || hi < lo {
		panic("experiments: bad x-axis range")
	}
	var out []float64
	for x := lo; x <= hi; x += step {
		out = append(out, float64(x))
	}
	return out
}

// Generator regenerates one experiment.
type Generator struct {
	ID    string
	Title string
	Run   func(Config) repro.Table
}

// All returns every table-shaped experiment in paper order. Figure 13 (the
// execution trace) and Figure 17 (pseudocode — implemented as mac.RunBestOfK)
// are not tables; see RunTrace.
func All() []Generator {
	return []Generator{
		{"fig3", "CW slots vs n, 64B payload (MAC)", figure3},
		{"fig4", "CW slots vs n, 1024B payload (MAC)", figure4},
		{"fig5", "CW slots vs n (abstract model)", figure5},
		{"fig6", "CW slots to finish n/2, 64B (MAC)", figure6},
		{"fig7", "Total time vs n, 64B (MAC)", figure7},
		{"fig8", "Total time vs n, 1024B (MAC)", figure8},
		{"fig9", "Time to finish n/2, 64B (MAC)", figure9},
		{"fig10", "Time to finish n/2, 1024B (MAC)", figure10},
		{"fig11", "Max ACK timeouts per station, 64B (MAC)", figure11},
		{"fig12", "Max time waiting on ACK timeouts, 64B (MAC)", figure12},
		{"fig14", "LLB - BEB total time vs payload size, n=150", figure14},
		{"fig15", "CW slots at large n (abstract model)", figure15},
		{"fig16", "Collision ratios vs STB (abstract model)", figure16},
		{"fig18", "BEST-OF-k size estimates vs true n", figure18},
		{"fig19", "Total time: BEST-OF-k vs BEB, 64B (MAC)", figure19},
		{"tab3", "Empirical collision counts (Table III shapes)", tableIII},
		{"decomp", "Section III-B total-time decomposition, BEB", decompositionTable},
		{"rts", "Section III-B RTS/CTS comparison, n=150", rtsctsTable},
		{"minpkt", "Section V-B minimum-packet experiment", minPacketTable},
	}
}

// Extras returns the ablation experiments: studies of this reproduction's
// own design decisions (DESIGN.md), not paper artifacts.
func Extras() []Generator {
	return []Generator{
		{"ablation-capture", "Collisions: paper grid vs near/far capture layout", ablationCapture},
		{"ablation-align", "Collisions: aligned vs per-station windows", ablationAlignment},
		{"ablation-ackto", "Aggregate ACK-timeout wait vs timeout value", ablationAckTimeout},
		{"instant", "Section V-B: shrinking the cost of collision detection", instantDetectTable},
		{"tput", "Saturated throughput vs n (continuous traffic, CWmin=16)", saturatedThroughputTable},
	}
}

// ByID returns the generator with the given ID, searching paper artifacts
// first, then ablations.
func ByID(id string) (Generator, bool) {
	for _, g := range All() {
		if g.ID == id {
			return g, true
		}
	}
	for _, g := range Extras() {
		if g.ID == id {
			return g, true
		}
	}
	return Generator{}, false
}

// macScenario builds the standard wifi-model Scenario for one algorithm and
// batch size with the figure's full MAC configuration pinned.
func macScenario(cfg mac.Config, algo repro.Algorithm) func(x float64) repro.Scenario {
	return func(x float64) repro.Scenario {
		return repro.Scenario{Model: repro.WiFi(), Algorithm: algo, N: int(x),
			Options: []repro.Option{wholeConfig(cfg)}}
	}
}

// macSweepTable runs the standard four-algorithm MAC sweep through the
// public aggregation pipeline, one scenario grid per algorithm.
func macSweepTable(c Config, id, title, ylabel string, cfg mac.Config, defTrials int,
	metric func(repro.BatchResult) float64) repro.Table {
	xs := c.nAxis(150, 10)
	m := batchMetric(ylabel, metric)
	t := repro.Table{ID: id, Title: title, XLabel: "n"}
	for _, name := range backoff.PaperAlgorithmNames() {
		t.Series = append(t.Series,
			c.series(name, xs, c.trials(defTrials), m, macScenario(cfg, repro.MustAlgorithm(name))))
	}
	addBaselineNotes(&t)
	return t
}

// addBaselineNotes appends the paper's headline percentages (vs BEB at the
// largest n) to the table notes.
func addBaselineNotes(t *repro.Table) {
	for _, s := range t.Series {
		if s.Name == "BEB" {
			continue
		}
		if pct, err := t.PercentVsBaseline(s.Name, "BEB"); err == nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%s vs BEB at largest n: %+.1f%%", s.Name, pct))
		}
	}
}
