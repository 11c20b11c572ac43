package experiments

import (
	"testing"
)

// TestInstantDetectSpectrum asserts the Section V-B ablation's two
// endpoints: under the paper's default cost model the newer algorithms
// lose to BEB (LB and STB clearly), and in the a2like regime — collisions
// costing about one slot — the abstract ordering returns, with STB beating
// BEB on total time.
func TestInstantDetectSpectrum(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-regime MAC sweep")
	}
	c := Config{NMax: 120, Trials: 9, Seed: 3}
	tab := instantDetectTable(c)
	checkTableBasics(t, tab, paperSeries)
	if len(tab.Series[0].Points) != 4 {
		t.Fatalf("expected 4 regimes, got %d points", len(tab.Series[0].Points))
	}
	val := func(name string, regime int) float64 {
		return tab.SeriesByName(name).Points[regime].Median
	}
	// Regime 0 (default): LB and STB above BEB.
	for _, a := range []string{"LB", "STB"} {
		if val(a, 0) <= val("BEB", 0) {
			t.Errorf("default regime: %s %v not above BEB %v", a, val(a, 0), val("BEB", 0))
		}
	}
	// Regime 3 (a2like): STB at or below BEB — the reversal un-reverses.
	if val("STB", 3) >= val("BEB", 3) {
		t.Errorf("a2like regime: STB %v not below BEB %v", val("STB", 3), val("BEB", 3))
	}
	// Every algorithm gets faster as collisions get cheaper (default vs
	// a2like).
	for _, a := range paperSeries {
		if val(a, 3) >= val(a, 0) {
			t.Errorf("%s: a2like total %v not below default %v", a, val(a, 3), val(a, 0))
		}
	}
	if len(tab.Notes) != 4 {
		t.Errorf("expected 4 regime notes, got %d", len(tab.Notes))
	}
}

func TestSaturatedThroughputQuick(t *testing.T) {
	c := Config{NMax: 20, NStep: 10, Trials: 3, Seed: 4}
	tab := saturatedThroughputTable(c)
	checkTableBasics(t, tab, []string{"BEB", "LB", "LLB", "STB", "POLY(2)", "Bianchi(BEB)"})
	// Throughput is positive and below the physical ceiling for all series.
	for _, s := range tab.Series {
		for _, p := range s.Points {
			if p.Median <= 0 || p.Median > 10 {
				t.Errorf("%s at n=%v: throughput %v Mbps implausible", s.Name, p.X, p.Median)
			}
		}
	}
	// Simulated BEB within a factor 2 of Bianchi at the largest n.
	beb := lastMedian(t, tab, "BEB")
	bianchi := lastMedian(t, tab, "Bianchi(BEB)")
	if r := beb / bianchi; r < 0.5 || r > 2 {
		t.Errorf("BEB %v vs Bianchi %v: ratio %v outside [0.5, 2]", beb, bianchi, r)
	}
	if len(tab.Notes) == 0 {
		t.Error("tput: Bianchi comparison note missing")
	}
}
