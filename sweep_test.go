package repro

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/trace"
)

// TestSweepBitIdenticalToSerialRuns is the determinism contract: every cell
// of a parallel sweep must equal the serial Engine.Run of its scenario with
// the same seed, bit for bit, regardless of worker count or scheduling order.
func TestSweepBitIdenticalToSerialRuns(t *testing.T) {
	scenarios := []Scenario{
		{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 25},
		{Model: Abstract(), Algorithm: MustAlgorithm("LLB"), N: 40},
		{Model: WiFi(), N: 20, Workload: BestOfKWorkload{K: 3}},
	}
	seeds := []uint64{1, 42, 9000}

	for _, workers := range []int{1, 4} {
		eng := Engine{Workers: workers}
		cells := 0
		for cell := range eng.Sweep(t.Context(), scenarios, seeds) {
			cells++
			if cell.Err != nil {
				t.Fatalf("workers=%d cell (%d,%d): %v", workers, cell.ScenarioIndex, cell.SeedIndex, cell.Err)
			}
			seed := seeds[cell.SeedIndex]
			want := mustRun(t, scenarios[cell.ScenarioIndex].WithOptions(WithSeed(seed)))
			if !reflect.DeepEqual(cell.Result, want) {
				t.Errorf("workers=%d cell (%d, seed %d) diverged from serial run", workers, cell.ScenarioIndex, seed)
			}
		}
		if cells != len(scenarios)*len(seeds) {
			t.Fatalf("workers=%d: got %d cells, want %d", workers, cells, len(scenarios)*len(seeds))
		}
	}
}

// TestSweepStableOrder: cells stream scenario-major, seed-minor, no matter
// which worker finishes first.
func TestSweepStableOrder(t *testing.T) {
	scenarios := []Scenario{
		{Model: Abstract(), Algorithm: MustAlgorithm("BEB"), N: 10},
		{Model: Abstract(), Algorithm: MustAlgorithm("STB"), N: 2000}, // much slower than its neighbours
		{Model: Abstract(), Algorithm: MustAlgorithm("LB"), N: 10},
	}
	seeds := []uint64{1, 2, 3, 4}
	eng := Engine{Workers: 4}
	i := 0
	for cell := range eng.Sweep(t.Context(), scenarios, seeds) {
		if cell.ScenarioIndex != i/len(seeds) || cell.SeedIndex != i%len(seeds) {
			t.Fatalf("cell %d arrived as (%d,%d)", i, cell.ScenarioIndex, cell.SeedIndex)
		}
		if cell.Seed != seeds[cell.SeedIndex] {
			t.Fatalf("cell %d carries seed %d, want %d", i, cell.Seed, seeds[cell.SeedIndex])
		}
		i++
	}
	if i != len(scenarios)*len(seeds) {
		t.Fatalf("got %d cells, want %d", i, len(scenarios)*len(seeds))
	}
}

// TestSweepSeedOverridesScenarioSeed: the grid seed wins over a WithSeed
// already present in the scenario's options.
func TestSweepSeedOverridesScenarioSeed(t *testing.T) {
	s := Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 15,
		Options: []Option{WithSeed(999)}}
	var eng Engine
	for cell := range eng.Sweep(t.Context(), []Scenario{s}, []uint64{3}) {
		if cell.Err != nil {
			t.Fatal(cell.Err)
		}
		want := runBatch(t, WiFi(), "BEB", 15, WithSeed(3))
		if !reflect.DeepEqual(*cell.Result.Batch, want) {
			t.Error("grid seed did not override the scenario's WithSeed")
		}
	}
}

func TestSweepPropagatesValidationErrors(t *testing.T) {
	var eng Engine
	cells := 0
	for cell := range eng.Sweep(t.Context(), []Scenario{{Model: WiFi(), N: 0}}, []uint64{1, 2}) {
		cells++
		if cell.Err == nil {
			t.Error("invalid scenario cell reported no error")
		}
	}
	if cells != 2 {
		t.Fatalf("got %d cells, want 2", cells)
	}
}

func TestSweepCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var eng Engine
	scenarios := []Scenario{{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 20}}
	cells := 0
	for range eng.Sweep(ctx, scenarios, []uint64{0, 1, 2, 3, 4, 5, 6, 7}) {
		cells++
	}
	if cells != 0 {
		t.Fatalf("pre-cancelled sweep emitted %d cells", cells)
	}
}

// TestSweepCancelMidSweep: cancelling after a few cells stops the stream
// early — the channel closes without delivering the full grid.
func TestSweepCancelMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := Engine{Workers: 2}
	scenarios := []Scenario{{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 30}}
	seeds := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	got := 0
	for cell := range eng.Sweep(ctx, scenarios, seeds) {
		if cell.Err != nil {
			continue
		}
		got++
		if got == 3 {
			cancel()
		}
	}
	// The forwarder is the only sender and checks ctx before each send, so
	// after the cancellation at cell 3 at most one in-flight cell follows.
	if got > 4 {
		t.Fatalf("cancelled sweep still delivered %d cells", got)
	}
}

func TestParallelPathsRejectWithTrace(t *testing.T) {
	var eng Engine
	traced := Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 10,
		Options: []Option{WithTrace(&trace.Recorder{})}}
	cells := 0
	for cell := range eng.Sweep(t.Context(), []Scenario{traced}, []uint64{1, 2}) {
		cells++
		if cell.Err == nil {
			t.Error("Sweep accepted a traced scenario")
		}
	}
	if cells != 2 {
		t.Fatalf("got %d cells, want 2", cells)
	}
	if _, err := eng.RunMany(t.Context(), []Scenario{traced}); err == nil {
		t.Error("RunMany accepted a traced scenario")
	}
	// Engine.Run still traces.
	rec := &trace.Recorder{}
	tracedRun := Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 5,
		Options: []Option{WithSeed(5), WithTrace(rec)}}
	if _, err := eng.Run(t.Context(), tracedRun); err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) == 0 {
		t.Error("Engine.Run traced nothing")
	}
}

func TestSweepEmptyGrid(t *testing.T) {
	var eng Engine
	for range eng.Sweep(t.Context(), nil, []uint64{1}) {
		t.Fatal("empty grid emitted a cell")
	}
}

func TestSeedDerivation(t *testing.T) {
	a, b := Seeds(1, 5), Seeds(1, 5)
	if !reflect.DeepEqual(a, b) {
		t.Error("Seeds not deterministic")
	}
	c := Seeds(2, 5)
	if reflect.DeepEqual(a, c) {
		t.Error("different bases derived identical seeds")
	}
	seen := map[uint64]bool{}
	for _, s := range a {
		if seen[s] {
			t.Errorf("duplicate derived seed %d", s)
		}
		seen[s] = true
	}
}

// TestSeedsNoCollisionsAtGridScale derives a 10k-trial grid's worth of
// seeds — the scale of a full-fidelity figure — and demands they never
// collide, for Seeds ladders from several bases.
func TestSeedsNoCollisionsAtGridScale(t *testing.T) {
	const trials = 10_000
	for _, base := range []uint64{0, 1, 42, 1 << 60} {
		seen := make(map[uint64]int, trials)
		for i, s := range Seeds(base, trials) {
			if j, dup := seen[s]; dup {
				t.Fatalf("base %d: Seeds[%d] == Seeds[%d] == %d", base, i, j, s)
			}
			seen[s] = i
		}
	}
}

// TestSeedsDeterministicPrefix: Seeds(base, n) must be a prefix of
// Seeds(base, m) for n < m — growing a sweep keeps existing trials' seeds.
func TestSeedsDeterministicPrefix(t *testing.T) {
	small, big := Seeds(9, 100), Seeds(9, 10_000)
	for i, s := range small {
		if big[i] != s {
			t.Fatalf("Seeds(9, 100)[%d] != Seeds(9, 10000)[%d]", i, i)
		}
	}
}

// TestWithRawSeedBypassesDerivation pins the figure regenerator's seeding
// contract: under WithRawSeed the seed is the simulator's stream, so two
// different scenarios fed the same raw seed draw correlated randomness,
// while the default derivation decorrelates them.
func TestWithRawSeedBypassesDerivation(t *testing.T) {
	ctx := context.Background()
	var eng Engine
	run := func(algo string, opts ...Option) BatchResult {
		res, err := eng.Run(ctx, Scenario{Model: Abstract(), Algorithm: MustAlgorithm(algo), N: 50,
			Options: append([]Option{WithSeed(99)}, opts...)})
		if err != nil {
			t.Fatal(err)
		}
		return *res.Batch
	}
	// Raw runs must be reproducible and differ from the derived-stream run
	// of the same scenario (the labels no longer mix into the stream).
	raw1, raw2 := run("BEB", WithRawSeed()), run("BEB", WithRawSeed())
	if raw1.CWSlots != raw2.CWSlots || raw1.Collisions != raw2.Collisions {
		t.Fatal("raw-seed runs not deterministic")
	}
	derived := run("BEB")
	if derived.CWSlots == raw1.CWSlots && derived.Collisions == raw1.Collisions {
		t.Fatal("raw seed did not bypass stream derivation")
	}
}

func TestForEachCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		const n = 37
		counts := make([]int64, n)
		forEach(workers, n, func(i int) { atomic.AddInt64(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
	// Degenerate sizes must not hang or panic.
	forEach(4, 0, func(int) { t.Fatal("fn called for n=0") })
	forEach(0, -1, func(int) { t.Fatal("fn called for n<0") })
}
