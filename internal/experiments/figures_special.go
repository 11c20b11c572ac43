package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/mac"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
)

// figure13 regenerates Figure 13: a single BEB run with 20 stations,
// rendered as a timeline (transmissions as thick marks, ACK timeouts as
// thin marks). It returns the rendered timeline and the raw recorder.
func figure13(c Config) (string, *trace.Recorder) {
	rec := &trace.Recorder{}
	n := 20
	if c.NMax > 0 && c.NMax < n {
		n = c.NMax
	}
	// A single traced run goes through Engine.Run (sweeps reject tracers);
	// the raw seed makes the "fig13" label's stream the simulator's own.
	sc := repro.Scenario{Model: repro.WiFi(), Algorithm: repro.MustAlgorithm("BEB"), N: n,
		Options: []repro.Option{
			repro.WithRawSeed(),
			repro.WithSeed(rng.DeriveSeed(c.Seed, "fig13")),
			repro.WithTrace(rec),
		}}
	if _, err := c.engine().Run(c.ctx(), sc); err != nil {
		c.checkCancelled(err)
		panic(fmt.Sprintf("experiments: fig13: %v", err))
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 13 — execution of BEB with %d stations (█ tx, x ACK timeout, * success)\n", n)
	if err := rec.Render(&sb, trace.RenderOptions{Width: 110, ShowAP: true}); err != nil {
		panic(err) // strings.Builder cannot fail; a failure is a bug
	}
	return sb.String(), rec
}

// RunTrace is figure13 under ctx — the Run counterpart for the one
// experiment that is a timeline rather than a table, with mid-run
// cancellation returned as an error.
func RunTrace(ctx context.Context, c Config) (render string, rec *trace.Recorder, err error) {
	c.Ctx = ctx
	defer recoverCancelled(&err)
	render, rec = figure13(c)
	return render, rec, nil
}

// figure14 regenerates Figure 14: the per-trial difference in total time
// between LLB and BEB at n = 150 as the payload grows from 100 to 1000
// bytes, with the paper's linear-regression significance test on the trend.
//
// The metric is a paired difference no single Result exposes, so the figure
// sweeps both algorithms' scenarios through the engine and folds the diffs
// into the public Aggregator via Observe, with the outlier filter off (the
// paper fits the raw per-trial scatter).
func figure14(c Config) repro.Table {
	n := 150
	if c.NMax > 0 {
		n = c.NMax
	}
	payloads := intXs(100, 1000, 100)
	if c.NStep > 0 {
		payloads = intXs(min(c.NStep, 1000), 1000, c.NStep)
	}
	trials := c.trials(30)

	// Scenario pairs, payload-major then trial: scenario 2i is LLB, 2i+1 its
	// BEB mate. Both draw on one (payload, trial) stream, split into the
	// child streams "llb" and "beb".
	scenarios := make([]repro.Scenario, 0, 2*len(payloads)*trials)
	for _, p := range payloads {
		cfg := mac.DefaultConfig()
		cfg.PayloadBytes = int(p)
		for t := 0; t < trials; t++ {
			base := rng.New(trialSeed(c.Seed, "LLB-BEB", p, t))
			for _, algo := range []string{"LLB", "BEB"} {
				scenarios = append(scenarios, repro.Scenario{
					Model: repro.WiFi(), Algorithm: repro.MustAlgorithm(algo), N: n,
					Options: []repro.Option{wholeConfig(cfg), repro.WithRawSeed(),
						repro.WithSeed(base.ChildSeed(strings.ToLower(algo)))},
				})
			}
		}
	}
	results := c.runMany("fig14", scenarios)

	agg := repro.NewAggregator(repro.Metric{Name: "llb_minus_beb_us"})
	agg.KeepOutliers = true // the paper fits raw per-trial scatter
	var xs, ys []float64    // the full scatter, for the regression below
	for i := 0; i < len(results); i += 2 {
		pi := i / 2 / trials
		d := us(results[i].Batch.TotalTime) - us(results[i+1].Batch.TotalTime)
		if err := agg.Observe(pi, d); err != nil {
			panic(err)
		}
		xs = append(xs, payloads[pi])
		ys = append(ys, d)
	}
	series := reportSeries("LLB-BEB", payloads, agg.Finish())

	t := repro.Table{ID: "fig14", Title: fmt.Sprintf("LLB - BEB total time (µs) vs payload, n=%d", n),
		XLabel: "payload (bytes)", Series: []repro.Series{series}}

	// Regression over the full per-trial scatter, exactly as the paper fits
	// Figure 14 (one point per trial per payload).
	if reg, err := stats.LinearFit(xs, ys); err == nil {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"OLS over %d per-trial points: +100B payload -> %+.0f µs extra LLB-BEB gap (slope %.2f µs/B, p=%.2g, R²=%.2f)",
			reg.N, 100*reg.Slope, reg.Slope, reg.PValue, reg.R2))
	}
	return t
}

// bestOfKScenario builds the wifi-model BEST-OF-k Scenario for batch size x.
func bestOfKScenario(k int) func(x float64) repro.Scenario {
	return func(x float64) repro.Scenario {
		return repro.Scenario{Model: repro.WiFi(), N: int(x), Workload: repro.BestOfKWorkload{K: k}}
	}
}

// figure18 regenerates Figure 18: the median BEST-OF-k estimate of n vs the
// true n for k = 3 and k = 5, plus the true-size line.
func figure18(c Config) repro.Table {
	xs := c.nAxis(150, 10)
	trials := c.trials(20)

	estimate := repro.Metric{Name: "estimate", Extract: func(r repro.Result) float64 {
		return float64(r.BestOfK.MedianEstimate)
	}}
	t := repro.Table{ID: "fig18", Title: "BEST-OF-k size estimates", XLabel: "n"}
	t.Series = append(t.Series, c.series("Best-of-3", xs, trials, estimate, bestOfKScenario(3)))
	t.Series = append(t.Series, c.series("Best-of-5", xs, trials, estimate, bestOfKScenario(5)))
	truth := repro.Series{Name: "TrueSize"}
	for _, x := range xs {
		truth.Points = append(truth.Points, exactPoint(x, x, 1))
	}
	t.Series = append(t.Series, truth)
	return t
}

// figure19 regenerates Figure 19: total time (µs) for Best-of-3, Best-of-5
// and BEB, 64-byte payload, 20 trials.
func figure19(c Config) repro.Table {
	xs := c.nAxis(150, 10)
	trials := c.trials(20)
	cfg := mac.DefaultConfig()

	t := repro.Table{ID: "fig19", Title: "Total time: BEST-OF-k vs BEB (µs), 64B",
		XLabel: "n"}
	t.Series = append(t.Series, c.series("Best-of-3", xs, trials, repro.TotalTime(), bestOfKScenario(3)))
	t.Series = append(t.Series, c.series("Best-of-5", xs, trials, repro.TotalTime(), bestOfKScenario(5)))
	t.Series = append(t.Series, c.series("BEB", xs, trials, repro.TotalTime(), macScenario(cfg, repro.MustAlgorithm("BEB"))))
	for _, name := range []string{"Best-of-3", "Best-of-5"} {
		if pct, err := t.PercentVsBaseline(name, "BEB"); err == nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%s vs BEB at largest n: %+.1f%% (paper: ~-26%%/-25%%)", name, pct))
		}
	}
	return t
}

// decompositionTable regenerates the Section III-B worked example: the
// decomposition of BEB's total time at n = 150 into (I) collision
// transmission time, (II) ACK timeouts, (III) CW slots.
func decompositionTable(c Config) repro.Table {
	n := 150
	if c.NMax > 0 {
		n = c.NMax
	}
	trials := c.trials(15)
	cfg := mac.DefaultConfig()

	metrics := map[string]func(core.Decomposition) float64{
		"I_transmission": func(d core.Decomposition) float64 { return us(d.TransmissionTime) },
		"II_ackTimeouts": func(d core.Decomposition) float64 { return us(d.AckTimeoutTime) },
		"III_cwSlots":    func(d core.Decomposition) float64 { return us(d.CWSlotTime) },
		"lowerBound":     func(d core.Decomposition) float64 { return us(d.LowerBound) },
		"observedTotal":  func(d core.Decomposition) float64 { return us(d.Observed) },
	}
	order := []string{"I_transmission", "II_ackTimeouts", "III_cwSlots", "lowerBound", "observedTotal"}
	t := repro.Table{ID: "decomp", Title: fmt.Sprintf("BEB total-time decomposition (µs), n=%d", n),
		XLabel: "n"}
	for _, name := range order {
		m := metrics[name]
		metric := batchMetric(name, func(r repro.BatchResult) float64 { return m(*r.Decomposition) })
		// Each component is its own series with its own trialSeed streams, so
		// the five rows are five independent repetitions.
		t.Series = append(t.Series,
			c.series(name, []float64{float64(n)}, trials, metric, macScenario(cfg, repro.MustAlgorithm("BEB"))))
	}
	t.Notes = append(t.Notes,
		"paper (n=150, 64B): (I) ~13163 µs dominates, (II) ~1100 µs, (III) ~7974 µs; lower bound ~22237 µs")
	return t
}
