package experiments

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/mac"
	"repro/internal/saturation"
)

// saturatedThroughputTable extends the paper toward its related-work
// setting: saturated stations under continuous traffic (Bianchi's regime,
// reference [8]). It sweeps n for the four paper algorithms plus quadratic
// backoff (POLY(2), the candidate of reference [53]) and overlays Bianchi's
// analytical prediction for BEB. CWmin is 16 (standard DCF): the paper's
// single-batch CWmin = 1 degenerates to channel capture under saturation
// (see mac.TestContinuousCaptureWithCWMin1).
func saturatedThroughputTable(c Config) repro.Table {
	xs := c.nAxis(40, 10)
	trials := c.trials(7)
	horizon := 150 * time.Millisecond

	cfg := mac.DefaultConfig()
	cfg.CWMin = 16

	build := func(algo repro.Algorithm) func(x float64) repro.Scenario {
		return func(x float64) repro.Scenario {
			return repro.Scenario{Model: repro.WiFi(), Algorithm: algo, N: int(x),
				Workload: repro.ContinuousWorkload{Arrivals: repro.Saturated(), Horizon: horizon},
				Options:  []repro.Option{wholeConfig(cfg)}}
		}
	}
	series := []struct {
		name string
		algo repro.Algorithm
	}{
		{"BEB", repro.MustAlgorithm("BEB")},
		{"LB", repro.MustAlgorithm("LB")},
		{"LLB", repro.MustAlgorithm("LLB")},
		{"STB", repro.MustAlgorithm("STB")},
		{"POLY(2)", repro.Polynomial(2)},
	}
	t := repro.Table{ID: "tput", Title: "Saturated throughput (Mbit/s payload), CWmin=16",
		XLabel: "n"}
	for _, s := range series {
		t.Series = append(t.Series, c.series(s.name, xs, trials, repro.ThroughputMbps(), build(s.algo)))
	}

	// Bianchi's model as an analytic overlay for BEB.
	model := repro.Series{Name: "Bianchi(BEB)"}
	for _, x := range xs {
		mbps, err := saturation.Predict(cfg, int(x))
		if err != nil {
			continue
		}
		model.Points = append(model.Points, exactPoint(x, mbps, 1))
	}
	t.Series = append(t.Series, model)

	if beb := t.SeriesByName("BEB"); beb != nil && len(beb.Points) > 0 && len(model.Points) > 0 {
		last := len(beb.Points) - 1
		t.Notes = append(t.Notes, fmt.Sprintf(
			"at n=%.0f: simulated BEB %.2f Mbps vs Bianchi %.2f Mbps",
			beb.Points[last].X, beb.Points[last].Median, model.Points[len(model.Points)-1].Median))
	}
	return t
}
