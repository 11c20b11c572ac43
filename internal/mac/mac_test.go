package mac

import (
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/rng"
)

func run(t *testing.T, cfg Config, n int, f backoff.Factory, seed uint64) Result {
	t.Helper()
	return RunBatch(cfg, n, f, rng.New(seed), nil)
}

// totalAckTimeouts sums ACK timeouts over all stations.
func totalAckTimeouts(res Result) int {
	total := 0
	for _, s := range res.Stations {
		total += s.AckTimeouts
	}
	return total
}

// logicalEvents is a run's event count with the slot events the idle
// fast-forward elided added back: a pure function of the scenario, not of
// kernel optimizations.
func logicalEvents(k KernelStats) uint64 { return k.EventsFired + k.IdleSlotsElided }

func checkRunInvariants(t *testing.T, res Result, cfg Config) {
	t.Helper()
	if res.TotalTime <= 0 {
		t.Fatal("non-positive total time")
	}
	if res.HalfTime <= 0 || res.HalfTime > res.TotalTime {
		t.Fatalf("HalfTime %v out of range (total %v)", res.HalfTime, res.TotalTime)
	}
	for i, s := range res.Stations {
		if s.FinishTime <= 0 {
			t.Fatalf("station %d never finished", i)
		}
		if s.FinishTime > res.TotalTime {
			t.Fatalf("station %d finished at %v > total %v", i, s.FinishTime, res.TotalTime)
		}
		if s.Attempts < 1 {
			t.Fatalf("station %d attempts = %d", i, s.Attempts)
		}
		if s.AckTimeouts != s.Attempts-1 {
			t.Fatalf("station %d: %d timeouts with %d attempts; every failed attempt must time out exactly once",
				i, s.AckTimeouts, s.Attempts)
		}
		if s.AckTimeoutWait != time.Duration(s.AckTimeouts)*cfg.AckTimeout {
			t.Fatalf("station %d timeout wait %v inconsistent", i, s.AckTimeoutWait)
		}
	}
	timeouts := totalAckTimeouts(res)
	if timeouts < 2*res.Collisions {
		t.Fatalf("%d total timeouts < 2x %d disjoint collisions: some collision had < 2 participants",
			timeouts, res.Collisions)
	}
	if (res.Collisions == 0) != (timeouts == 0) {
		t.Fatalf("collisions %d vs timeouts %d disagree about whether any collision happened",
			res.Collisions, timeouts)
	}
	// Successful exchanges are serialized on the channel.
	minTotal := time.Duration(len(res.Stations)) * cfg.MinPerPacketTime()
	if res.TotalTime < minTotal {
		t.Fatalf("total time %v below serialization bound %v", res.TotalTime, minTotal)
	}
	if res.CWSlotsAtHalf > res.CWSlots {
		t.Fatalf("CWSlotsAtHalf %d > CWSlots %d", res.CWSlotsAtHalf, res.CWSlots)
	}
}

func TestSingleStationExactTiming(t *testing.T) {
	cfg := DefaultConfig()
	res := run(t, cfg, 1, backoff.NewBEB, 1)
	// DIFS + data frame + SIFS + ACK, no backoff slots (window 1, counter 0).
	want := cfg.DIFS + cfg.DataFrameDuration() + cfg.SIFS + cfg.AckDuration()
	if res.TotalTime != want {
		t.Fatalf("single-station total = %v, want %v", res.TotalTime, want)
	}
	if res.Collisions != 0 || res.MaxAckTimeouts != 0 || res.CWSlots != 0 {
		t.Fatalf("single station saw contention: %+v", res)
	}
}

func TestInvariantsAcrossAlgorithmsAndSizes(t *testing.T) {
	cfg := DefaultConfig()
	for _, spec := range backoff.PaperAlgorithmNames() {
		f, _ := backoff.Registered(spec)
		for _, n := range []int{1, 2, 3, 10, 40} {
			res := run(t, cfg, n, f, uint64(n)*7+3)
			checkRunInvariants(t, res, cfg)
			if len(res.Stations) != n {
				t.Fatalf("%d stations, want %d", len(res.Stations), n)
			}
		}
	}
}

func TestTwoStationsCollideInWindowOne(t *testing.T) {
	// BEB starts with CW = 1: both stations draw counter 0 and transmit at
	// DIFS end simultaneously — a guaranteed first collision.
	cfg := DefaultConfig()
	for seed := uint64(0); seed < 5; seed++ {
		res := run(t, cfg, 2, backoff.NewBEB, seed)
		if res.Collisions < 1 {
			t.Fatalf("seed %d: no collision despite CWmin=1", seed)
		}
		if res.Stations[0].AckTimeouts < 1 || res.Stations[1].AckTimeouts < 1 {
			t.Fatalf("seed %d: stations did not both time out", seed)
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	cfg := DefaultConfig()
	a := run(t, cfg, 25, backoff.NewLLB, 42)
	b := run(t, cfg, 25, backoff.NewLLB, 42)
	if a.TotalTime != b.TotalTime || a.Collisions != b.Collisions || a.CWSlots != b.CWSlots {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	cfg := DefaultConfig()
	a := run(t, cfg, 25, backoff.NewBEB, 1)
	b := run(t, cfg, 25, backoff.NewBEB, 2)
	if a.TotalTime == b.TotalTime && a.CWSlots == b.CWSlots && a.Collisions == b.Collisions {
		t.Fatal("independent seeds produced identical runs (suspicious)")
	}
}

func TestLargerPayloadTakesLonger(t *testing.T) {
	small := DefaultConfig()
	large := DefaultConfig()
	large.PayloadBytes = 1024
	a := run(t, small, 20, backoff.NewBEB, 9)
	b := run(t, large, 20, backoff.NewBEB, 9)
	if b.TotalTime <= a.TotalTime {
		t.Fatalf("1024B total %v not above 64B total %v", b.TotalTime, a.TotalTime)
	}
}

func TestRTSCTSMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RTSCTS = true
	res := run(t, cfg, 15, backoff.NewBEB, 5)
	checkRunInvariants(t, res, cfg)
	// With RTS/CTS each success costs RTS+CTS+DATA+ACK and three SIFS, so
	// total time must exceed the basic-mode serialization bound by the
	// control overhead.
	basicBound := time.Duration(len(res.Stations)) * cfg.MinPerPacketTime()
	if res.TotalTime <= basicBound {
		t.Fatalf("RTS/CTS total %v did not exceed basic bound %v", res.TotalTime, basicBound)
	}
}

func TestRTSCTSCollisionsAreShort(t *testing.T) {
	// Collisions under RTS/CTS involve 20-byte RTS frames, so the per-
	// collision airtime must be below one data-frame duration for 1024B
	// payloads.
	cfg := DefaultConfig()
	cfg.PayloadBytes = 1024
	cfg.RTSCTS = true
	res := run(t, cfg, 20, backoff.NewBEB, 6)
	if res.Collisions == 0 {
		t.Skip("no collisions this seed")
	}
	perCollision := res.CollisionAir / time.Duration(res.Collisions)
	if perCollision >= cfg.DataFrameDuration() {
		t.Fatalf("RTS collision airtime %v >= data frame %v", perCollision, cfg.DataFrameDuration())
	}
}

func TestCollisionAirtimeBounds(t *testing.T) {
	cfg := DefaultConfig()
	res := run(t, cfg, 30, backoff.NewBEB, 7)
	if res.Collisions > 0 {
		per := res.CollisionAir / time.Duration(res.Collisions)
		// Each disjoint collision lasts at least one frame and, with every
		// participant starting within one aligned window, at most two.
		if per < cfg.DataFrameDuration() || per > 2*cfg.DataFrameDuration() {
			t.Fatalf("per-collision airtime %v outside [1,2] frames (%v)", per, cfg.DataFrameDuration())
		}
	}
}

func TestTruncationRespected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CWMax = 8
	res := run(t, cfg, 30, backoff.NewBEB, 8)
	for i, s := range res.Stations {
		if s.LargestWindow > 8 {
			t.Fatalf("station %d reached window %d > CWMax 8", i, s.LargestWindow)
		}
	}
	checkRunInvariants(t, res, cfg)
}

func TestPanicsOnZeroStations(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunBatch(0) did not panic")
		}
	}()
	RunBatch(DefaultConfig(), 0, backoff.NewBEB, rng.New(1), nil)
}

// TestHeadlineReversal is the paper's central finding in miniature
// (Results 1 and 2): at moderate n, the newer algorithms beat BEB on CW
// slots yet lose to it on total time.
func TestHeadlineReversal(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial MAC comparison")
	}
	cfg := DefaultConfig()
	const n, trials = 100, 11
	med := map[string]struct{ slots, total float64 }{}
	for _, spec := range backoff.PaperAlgorithmNames() {
		f, _ := backoff.Registered(spec)
		name := f().Name()
		slots := make([]float64, trials)
		totals := make([]float64, trials)
		for tr := 0; tr < trials; tr++ {
			res := RunBatch(cfg, n, f, rng.New(uint64(1000+tr*17)).Derive(name), nil)
			slots[tr] = float64(res.CWSlots)
			totals[tr] = float64(res.TotalTime)
		}
		med[name] = struct{ slots, total float64 }{medianF(slots), medianF(totals)}
	}
	// Result 1: CW slots — every newer algorithm below BEB.
	for _, a := range []string{"LB", "LLB", "STB"} {
		if med[a].slots >= med["BEB"].slots {
			t.Errorf("Result 1 violated: %s CW slots %v >= BEB %v", a, med[a].slots, med["BEB"].slots)
		}
	}
	// Result 2: total time — LB and STB clearly above BEB; LLB is BEB's
	// closest competitor (the paper reports only +5.6% at n=150), so it is
	// only required not to beat BEB by a meaningful margin.
	for _, a := range []string{"LB", "STB"} {
		if med[a].total <= med["BEB"].total {
			t.Errorf("Result 2 violated: %s total %v <= BEB %v", a, med[a].total, med["BEB"].total)
		}
	}
	if med["LLB"].total < 0.95*med["BEB"].total {
		t.Errorf("Result 2 violated: LLB total %v more than 5%% below BEB %v",
			med["LLB"].total, med["BEB"].total)
	}
}

func medianF(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

func TestFinishTimesMatchHalfTime(t *testing.T) {
	cfg := DefaultConfig()
	res := run(t, cfg, 21, backoff.NewBEB, 11)
	count := 0
	for _, st := range res.Stations {
		if st.FinishTime <= res.HalfTime {
			count++
		}
	}
	if count != 11 { // ceil(21/2)
		t.Fatalf("%d stations finished by HalfTime, want 11", count)
	}
}

func BenchmarkRunBatchBEB50(b *testing.B) {
	cfg := DefaultConfig()
	g := rng.New(1)
	for i := 0; i < b.N; i++ {
		RunBatch(cfg, 50, backoff.NewBEB, g.Derive(string(rune(i))), nil)
	}
}

func BenchmarkRunBatchSTB50(b *testing.B) {
	cfg := DefaultConfig()
	g := rng.New(1)
	for i := 0; i < b.N; i++ {
		RunBatch(cfg, 50, backoff.NewSTB, g.Derive(string(rune(i))), nil)
	}
}
