package experiments

import (
	"fmt"

	"repro"
	"repro/internal/backoff"
)

// abstractScenario builds the abstract-model Scenario for one algorithm
// and batch size.
func abstractScenario(algo repro.Algorithm) func(x float64) repro.Scenario {
	return func(x float64) repro.Scenario {
		return repro.Scenario{Model: repro.Abstract(), Algorithm: algo, N: int(x)}
	}
}

// figure5 regenerates Figure 5: CW slots vs n under the pure abstract model
// (the paper's "simple Java simulation"), 50 trials.
func figure5(c Config) repro.Table {
	xs := c.nAxis(150, 10)
	t := repro.Table{ID: "fig5", Title: "CW slots (abstract model)", XLabel: "n"}
	for _, name := range backoff.PaperAlgorithmNames() {
		t.Series = append(t.Series,
			c.series(name, xs, c.trials(50), repro.MakespanSlots(), abstractScenario(repro.MustAlgorithm(name))))
	}
	addBaselineNotes(&t)
	return t
}

// figure15 regenerates Figure 15: CW slots for large n under the abstract
// model, where the asymptotic ordering (STB best, then LLB, LB, BEB)
// finally separates. The paper sweeps to n = 1e5 with 200 trials; the
// default here uses coarser steps and fewer trials — pass Config{Trials,
// NMax, NStep} for full fidelity.
func figure15(c Config) repro.Table {
	xs := c.nAxis(100_000, 20_000)
	t := repro.Table{ID: "fig15", Title: "CW slots at large n (abstract model)", XLabel: "n"}
	for _, name := range backoff.PaperAlgorithmNames() {
		t.Series = append(t.Series,
			c.series(name, xs, c.trials(15), repro.MakespanSlots(), abstractScenario(repro.MustAlgorithm(name))))
	}
	// The oddity of Section V-A(i): at small n LB beats LLB, at large n the
	// asymptotics win. Record which regime the sweep ended in.
	lb, llb := t.SeriesByName("LB"), t.SeriesByName("LLB")
	if lb != nil && llb != nil && len(lb.Points) > 0 {
		last := len(lb.Points) - 1
		rel := "below"
		if llb.Points[last].Median > lb.Points[last].Median {
			rel = "above"
		}
		t.Notes = append(t.Notes, fmt.Sprintf("at n=%.0f, LLB CW slots are %s LB (paper: LLB wins for large n)",
			lb.Points[last].X, rel))
	}
	return t
}

// figure16 regenerates Figure 16: the ratio of median collision counts
// LB/STB, LLB/STB and BEB/STB as n grows. BEB/STB stays flat (both Θ(n));
// LB/STB grows quickly; LLB/STB crosses 1 only around n ≈ 3×10^4.
func figure16(c Config) repro.Table {
	xs := c.nAxis(100_000, 20_000)
	trials := c.trials(15)

	med := map[string]repro.Series{}
	for _, name := range backoff.PaperAlgorithmNames() {
		med[name] = c.series(name, xs, trials, repro.CollisionCount(), abstractScenario(repro.MustAlgorithm(name)))
	}
	t := repro.Table{ID: "fig16", Title: "Collision ratio vs STB (abstract model)",
		XLabel: "n"}
	for _, name := range []string{"LB", "LLB", "BEB"} {
		s := repro.Series{Name: name + "/STB"}
		for i, p := range med[name].Points {
			stb := med["STB"].Points[i]
			s.Points = append(s.Points, exactPoint(p.X, p.Median/stb.Median, p.Trials))
		}
		t.Series = append(t.Series, s)
	}
	return t
}

// tableIII reports median disjoint-collision counts per algorithm alongside
// collisions/n, the empirical check of the Section IV bounds (BEB and STB
// linear; LB, LLB super-linear).
func tableIII(c Config) repro.Table {
	if c.NMax == 0 {
		c.NMax = 32_768
	}
	xs := []float64{}
	for n := 512; n <= c.NMax; n *= 4 {
		xs = append(xs, float64(n))
	}
	t := repro.Table{ID: "tab3", Title: "Disjoint collisions (Table III empirical)",
		XLabel: "n"}
	for _, name := range backoff.PaperAlgorithmNames() {
		t.Series = append(t.Series,
			c.series(name, xs, c.trials(9), repro.CollisionCount(), abstractScenario(repro.MustAlgorithm(name))))
	}
	for _, s := range t.Series {
		if len(s.Points) < 2 {
			continue
		}
		first := s.Points[0].Median / s.Points[0].X
		last := s.Points[len(s.Points)-1].Median / s.Points[len(s.Points)-1].X
		t.Notes = append(t.Notes,
			fmt.Sprintf("%s collisions/n: %.2f at n=%.0f -> %.2f at n=%.0f", s.Name,
				first, s.Points[0].X, last, s.Points[len(s.Points)-1].X))
	}
	return t
}
