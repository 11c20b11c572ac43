package experiments

import (
	"strings"
	"testing"

	"repro"
)

func lastMedian(t *testing.T, tab repro.Table, name string) float64 {
	t.Helper()
	s := tab.SeriesByName(name)
	if s == nil || len(s.Points) == 0 {
		t.Fatalf("%s: series %q missing or empty", tab.ID, name)
	}
	return s.Points[len(s.Points)-1].Median
}

func checkTableBasics(t *testing.T, tab repro.Table, wantSeries []string) {
	t.Helper()
	if tab.ID == "" || tab.Title == "" {
		t.Fatalf("table missing ID/title: %+v", tab)
	}
	for _, name := range wantSeries {
		s := tab.SeriesByName(name)
		if s == nil {
			t.Fatalf("%s: series %q missing", tab.ID, name)
		}
		for _, p := range s.Points {
			if p.Median < 0 {
				t.Fatalf("%s/%s: negative median at x=%v", tab.ID, name, p.X)
			}
			if p.CI95Lo > p.Median || p.CI95Hi < p.Median {
				t.Fatalf("%s/%s: CI [%v,%v] does not bracket median %v", tab.ID, name, p.CI95Lo, p.CI95Hi, p.Median)
			}
		}
	}
}

var paperSeries = []string{"BEB", "LB", "LLB", "STB"}

func TestRegistryComplete(t *testing.T) {
	all := All()
	seen := map[string]bool{}
	for _, g := range all {
		if g.ID == "" || g.Run == nil {
			t.Fatalf("bad generator %+v", g)
		}
		if seen[g.ID] {
			t.Fatalf("duplicate experiment id %q", g.ID)
		}
		seen[g.ID] = true
	}
	for _, id := range []string{"fig3", "fig7", "fig15", "fig19", "decomp", "rts"} {
		if _, ok := ByID(id); !ok {
			t.Fatalf("ByID(%q) missing", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("bogus id resolved")
	}
}

func TestFigure3QuickShape(t *testing.T) {
	tab := figure3(Quick())
	checkTableBasics(t, tab, paperSeries)
	// Result 1 (CW slots): STB and LB below BEB at the largest n.
	beb := lastMedian(t, tab, "BEB")
	for _, a := range []string{"STB", "LB"} {
		if v := lastMedian(t, tab, a); v >= beb {
			t.Errorf("fig3: %s CW slots %v >= BEB %v", a, v, beb)
		}
	}
	if len(tab.Notes) == 0 {
		t.Error("fig3: expected percentage notes")
	}
}

func TestFigure5QuickShape(t *testing.T) {
	tab := figure5(Quick())
	checkTableBasics(t, tab, paperSeries)
	beb := lastMedian(t, tab, "BEB")
	if v := lastMedian(t, tab, "STB"); v >= beb {
		t.Errorf("fig5: STB %v >= BEB %v", v, beb)
	}
}

func TestFigure6Quick(t *testing.T) {
	tab := figure6(Quick())
	checkTableBasics(t, tab, paperSeries)
}

func TestFigure7QuickReversal(t *testing.T) {
	c := Quick()
	c.NMax = 100
	c.NStep = 50
	c.Trials = 9
	tab := figure7(c)
	checkTableBasics(t, tab, paperSeries)
	// Result 2 (total time): LB and STB above BEB at the largest n.
	beb := lastMedian(t, tab, "BEB")
	for _, a := range []string{"LB", "STB"} {
		if v := lastMedian(t, tab, a); v <= beb {
			t.Errorf("fig7: %s total %v <= BEB %v", a, v, beb)
		}
	}
}

func TestFigure9Quick(t *testing.T) {
	tab := figure9(Quick())
	checkTableBasics(t, tab, paperSeries)
	// Half-time is below total time by construction; here just check the
	// series are populated and ordered sensibly at the largest n.
	if lastMedian(t, tab, "BEB") <= 0 {
		t.Error("fig9: BEB half-time not positive")
	}
}

func TestFigure11TimeoutOrdering(t *testing.T) {
	c := Quick()
	c.NMax = 100
	c.NStep = 50
	c.Trials = 9
	tab := figure11(c)
	checkTableBasics(t, tab, paperSeries)
	// Slower backoff means more timeouts: LB above BEB (Figure 11).
	if lb, beb := lastMedian(t, tab, "LB"), lastMedian(t, tab, "BEB"); lb <= beb {
		t.Errorf("fig11: LB max timeouts %v <= BEB %v", lb, beb)
	}
}

func TestFigure12Quick(t *testing.T) {
	tab := figure12(Quick())
	checkTableBasics(t, tab, paperSeries)
}

func TestFigure13Render(t *testing.T) {
	out, rec := figure13(Quick())
	if !strings.Contains(out, "█") || !strings.Contains(out, "Figure 13") {
		t.Fatalf("figure 13 render missing content:\n%s", out)
	}
	if len(rec.Events) == 0 {
		t.Fatal("figure 13 recorder empty")
	}
}

func TestFigure14SlopePositive(t *testing.T) {
	c := Config{NMax: 100, NStep: 300, Trials: 15, Seed: 5}
	tab := figure14(c)
	// checkTableBasics rejects negative medians, but a difference series is
	// legitimately negative; check structure by hand.
	if s := tab.SeriesByName("LLB-BEB"); s == nil || len(s.Points) < 2 {
		t.Fatal("fig14: LLB-BEB series missing or too short")
	}
	if len(tab.Notes) == 0 {
		t.Fatal("fig14: regression note missing")
	}
	// The gap should widen with payload: the last payload's median gap
	// exceeds the first's (the paper's statistically significant trend).
	s := tab.SeriesByName("LLB-BEB")
	first, last := s.Points[0].Median, s.Points[len(s.Points)-1].Median
	if last <= first {
		t.Errorf("fig14: LLB-BEB gap did not grow with payload (%v -> %v)", first, last)
	}
}

// A payload step past the 1000-byte maximum clamps to a single point at the
// maximum instead of asking for an empty axis.
func TestFigure14StepAboveMaxPayload(t *testing.T) {
	tab := figure14(Config{Trials: 1, NMax: 5, NStep: 2000, Seed: 1})
	s := tab.SeriesByName("LLB-BEB")
	if s == nil || len(s.Points) != 1 || s.Points[0].X != 1000 {
		t.Fatalf("fig14 with step 2000: want one point at x=1000, got %+v", s)
	}
}

func TestFigure15LargeNOrdering(t *testing.T) {
	c := Config{NMax: 30000, NStep: 15000, Trials: 5, Seed: 2}
	tab := figure15(c)
	checkTableBasics(t, tab, paperSeries)
	// Beyond n ~ 3x10^4 the asymptotics separate cleanly (Section V-A):
	// STB < LLB < LB < BEB on CW slots.
	beb, stb := lastMedian(t, tab, "BEB"), lastMedian(t, tab, "STB")
	lb, llb := lastMedian(t, tab, "LB"), lastMedian(t, tab, "LLB")
	if !(stb < llb && llb < lb && lb < beb) {
		t.Errorf("fig15 ordering: BEB=%v LB=%v LLB=%v STB=%v", beb, lb, llb, stb)
	}
	if len(tab.Notes) == 0 {
		t.Error("fig15: LLB/LB regime note missing")
	}
}

func TestFigure16Ratios(t *testing.T) {
	c := Config{NMax: 8000, NStep: 4000, Trials: 5, Seed: 3}
	tab := figure16(c)
	checkTableBasics(t, tab, []string{"LB/STB", "LLB/STB", "BEB/STB"})
	// LB suffers more collisions than STB already at moderate n; BEB has
	// fewer (both are Θ(n) but STB's backon inflates the constant).
	if v := lastMedian(t, tab, "LB/STB"); v <= 1 {
		t.Errorf("fig16: LB/STB ratio %v <= 1", v)
	}
	if v := lastMedian(t, tab, "BEB/STB"); v >= 1 {
		t.Errorf("fig16: BEB/STB ratio %v >= 1", v)
	}
}

func TestFigure18Overestimates(t *testing.T) {
	c := Quick()
	tab := figure18(c)
	checkTableBasics(t, tab, []string{"Best-of-3", "Best-of-5", "TrueSize"})
	for _, name := range []string{"Best-of-3", "Best-of-5"} {
		s := tab.SeriesByName(name)
		for _, p := range s.Points {
			if p.Median < p.X {
				t.Errorf("fig18: %s estimate %v underestimates n=%v", name, p.Median, p.X)
			}
		}
	}
}

func TestFigure19BestOfKWins(t *testing.T) {
	c := Quick()
	c.NMax = 100
	c.NStep = 50
	c.Trials = 9
	tab := figure19(c)
	checkTableBasics(t, tab, []string{"Best-of-3", "Best-of-5", "BEB"})
	beb := lastMedian(t, tab, "BEB")
	for _, name := range []string{"Best-of-3", "Best-of-5"} {
		if v := lastMedian(t, tab, name); v >= beb {
			t.Errorf("fig19 (Result 7): %s total %v >= BEB %v", name, v, beb)
		}
	}
}

func TestTableIIIQuick(t *testing.T) {
	c := Config{NMax: 2048, Trials: 5, Seed: 4}
	tab := tableIII(c)
	checkTableBasics(t, tab, paperSeries)
	if len(tab.Notes) != 4 {
		t.Fatalf("tab3: %d notes, want 4", len(tab.Notes))
	}
	// LB collisions above BEB at the largest n.
	if lb, beb := lastMedian(t, tab, "LB"), lastMedian(t, tab, "BEB"); lb <= beb {
		t.Errorf("tab3: LB collisions %v <= BEB %v", lb, beb)
	}
}

func TestDecompositionQuick(t *testing.T) {
	c := Config{NMax: 80, Trials: 7, Seed: 6}
	tab := decompositionTable(c)
	checkTableBasics(t, tab, []string{"I_transmission", "II_ackTimeouts", "III_cwSlots", "lowerBound", "observedTotal"})
	lower := lastMedian(t, tab, "lowerBound")
	obs := lastMedian(t, tab, "observedTotal")
	if lower > obs {
		t.Errorf("decomp: lower bound %v exceeds observed %v", lower, obs)
	}
	// Result 3: transmission dominates ACK timeouts.
	if tx, ack := lastMedian(t, tab, "I_transmission"), lastMedian(t, tab, "II_ackTimeouts"); tx <= ack {
		t.Errorf("decomp: (I) %v not above (II) %v", tx, ack)
	}
}

func TestRTSCTSQuick(t *testing.T) {
	c := Config{NMax: 60, NStep: 1, Trials: 5, Seed: 7}
	tab := rtsctsTable(c)
	checkTableBasics(t, tab, []string{"BEB", "LLB", "BEB-no", "LLB-no"})
	if len(tab.Notes) == 0 {
		t.Error("rts: percentage note missing")
	}
}

func TestMinPacketQuick(t *testing.T) {
	c := Config{NMax: 60, Trials: 5, Seed: 8}
	tab := minPacketTable(c)
	checkTableBasics(t, tab, paperSeries)
}

func TestAblationCaptureQuick(t *testing.T) {
	c := Config{Trials: 5, Seed: 9}
	tab := ablationCapture(c)
	checkTableBasics(t, tab, []string{"grid", "nearfar"})
	// The paper's grid admits no capture at all; the near/far layout must
	// show some frames decoded despite overlap.
	grid, nf := lastMedian(t, tab, "grid"), lastMedian(t, tab, "nearfar")
	if grid != 0 {
		t.Errorf("ablation: grid produced %v captures, want 0 (no-capture regime)", grid)
	}
	if nf == 0 {
		t.Errorf("ablation: near/far layout produced no captures")
	}
}

func TestAblationAlignmentQuick(t *testing.T) {
	c := Config{NMax: 100, NStep: 50, Trials: 5, Seed: 10}
	tab := ablationAlignment(c)
	checkTableBasics(t, tab, []string{"aligned", "unaligned"})
}

func TestAblationAckTimeoutQuick(t *testing.T) {
	c := Config{NMax: 40, Trials: 5, Seed: 11}
	tab := ablationAckTimeout(c)
	checkTableBasics(t, tab, []string{"BEB"})
	s := tab.SeriesByName("BEB")
	// The aggregate timeout wait grows with the timeout value (the count of
	// timeouts is distribution-stable while each costs x µs).
	if s.Points[len(s.Points)-1].Median <= s.Points[0].Median {
		t.Errorf("ablation-ackto: timeout wait did not grow with timeout: %v", s.Points)
	}
}

func TestQuickConfigDefaults(t *testing.T) {
	c := Quick()
	if c.Trials < 3 || c.NMax < 10 {
		t.Fatalf("Quick() too small to be meaningful: %+v", c)
	}
	if got := c.trials(99); got != c.Trials {
		t.Fatalf("trials override broken: %d", got)
	}
	var zero Config
	if got := zero.trials(30); got != 30 {
		t.Fatalf("default trials broken: %d", got)
	}
}

func TestIntXs(t *testing.T) {
	xs := intXs(10, 150, 10)
	if len(xs) != 15 || xs[0] != 10 || xs[14] != 150 {
		t.Fatalf("intXs = %v", xs)
	}
}

func TestIntXsPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	intXs(10, 5, 1)
}
