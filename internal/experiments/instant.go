package experiments

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/backoff"
	"repro/internal/mac"
)

// instantDetectTable explores the paper's Section V-B conjecture: "a
// setting where the abstract model may be valid is networks of
// multi-antenna devices" that can detect collisions without paying a full
// transmission plus an ACK timeout. The experiment sweeps collision cost
// from the paper's default down to approximately one slot:
//
//	default        — full frame + ACK timeout + EIFS deferral (the paper)
//	abort20        — transmissions abort 20 µs into an overlap (MIMO-style
//	                 detection) but EIFS deferral still penalizes everyone
//	abort9-noEIFS  — one-slot abort, EIFS disabled
//	a2like         — one-slot abort, EIFS and DIFS one slot: a collision
//	                 costs roughly one slot, assumption A2 restored
//
// Reproduced finding: detection alone does not rescue the newer
// algorithms (deferral still prices each of their more-numerous collisions
// at several slots — with immediate re-contention they collide even more);
// only when the entire collision event costs about a slot does the
// abstract ordering (STB, LB, LLB beating BEB) reappear.
func instantDetectTable(c Config) repro.Table {
	n := 150
	if c.NMax > 0 {
		n = c.NMax
	}
	trials := c.trials(11)

	regimes := []struct {
		name string
		mut  func(*mac.Config)
	}{
		{"default", func(*mac.Config) {}},
		{"abort20", func(cfg *mac.Config) {
			cfg.Radio.AbortOverlapAfter = 20 * time.Microsecond
		}},
		{"abort9-noEIFS", func(cfg *mac.Config) {
			cfg.Radio.AbortOverlapAfter = 9 * time.Microsecond
			cfg.EIFS = cfg.DIFS
		}},
		{"a2like", func(cfg *mac.Config) {
			cfg.Radio.AbortOverlapAfter = 9 * time.Microsecond
			cfg.EIFS = 9 * time.Microsecond
			cfg.DIFS = 9 * time.Microsecond
		}},
	}

	// X axis: regime index; one series per algorithm.
	xs := make([]float64, len(regimes))
	for i := range xs {
		xs[i] = float64(i)
	}
	t := repro.Table{ID: "instant", Title: fmt.Sprintf("Total time (µs) as collision cost shrinks, n=%d", n),
		XLabel: "regime"}
	for _, name := range backoff.PaperAlgorithmNames() {
		algo := repro.MustAlgorithm(name)
		build := func(x float64) repro.Scenario {
			cfg := mac.DefaultConfig()
			regimes[int(x)].mut(&cfg)
			return repro.Scenario{Model: repro.WiFi(), Algorithm: algo, N: n,
				Options: []repro.Option{wholeConfig(cfg)}}
		}
		t.Series = append(t.Series, c.series(name, xs, trials, repro.TotalTime(), build))
	}

	beb := t.SeriesByName("BEB")
	for i, r := range regimes {
		var note string
		for _, s := range t.Series {
			if s.Name == "BEB" {
				continue
			}
			pct := 100 * (s.Points[i].Median - beb.Points[i].Median) / beb.Points[i].Median
			note += fmt.Sprintf(" %s %+0.1f%%", s.Name, pct)
		}
		t.Notes = append(t.Notes, fmt.Sprintf("regime %d (%s) vs BEB:%s", i, r.name, note))
	}
	return t
}
