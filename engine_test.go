package repro

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// mustRun executes s on a zero Engine, failing t on error: the test-side
// shorthand for Engine.Run.
func mustRun(t testing.TB, s Scenario) Result {
	t.Helper()
	res, err := new(Engine).Run(t.Context(), s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runBatch runs the single-batch scenario of algo with n stations under m.
func runBatch(t testing.TB, m Model, algo string, n int, opts ...Option) BatchResult {
	t.Helper()
	return *mustRun(t, Scenario{Model: m, Algorithm: MustAlgorithm(algo), N: n, Options: opts}).Batch
}

func TestEngineRunRejectsInvalidScenarios(t *testing.T) {
	var eng Engine
	ctx := t.Context()
	for name, s := range map[string]Scenario{
		"zero scenario":       {},
		"unknown algorithm":   {Model: WiFi(), Algorithm: Algorithm{spec: "WAT"}, N: 10},
		"wifi tree":           {Model: WiFi(), N: 10, Workload: TreeWorkload{}},
		"abstract best-of-k":  {Model: Abstract(), N: 10, Workload: BestOfKWorkload{K: 3}},
		"abstract continuous": {Model: Abstract(), Algorithm: MustAlgorithm("BEB"), N: 10, Workload: ContinuousWorkload{Arrivals: Saturated(), Horizon: time.Millisecond}},
	} {
		if _, err := eng.Run(ctx, s); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestEngineRunHonoursCancelledContext(t *testing.T) {
	var eng Engine
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx, Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 10}); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestEngineRunNoProgressIsAnError runs a batch that Validate accepts but
// whose schedule can never resolve it: two-slot windows for 64 packets.
// The run ends in ErrNoProgress rather than a panic or a hang.
func TestEngineRunNoProgressIsAnError(t *testing.T) {
	var eng Engine
	_, err := eng.Run(t.Context(), Scenario{Model: Abstract(), Algorithm: MustAlgorithm("FIXED:2"), N: 64})
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("got %v, want ErrNoProgress", err)
	}
}

// TestPolyLargeExponentResolves runs a schedule whose windows outgrow int
// at the second attempt. They saturate, so the batch resolves; had they
// wrapped to 1, POLY:100 would be FIXED:1 and exhaust the MAC's event
// budget on two stations.
func TestPolyLargeExponentResolves(t *testing.T) {
	s := Scenario{Model: WiFi(), Algorithm: MustAlgorithm("POLY:100"), N: 2}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if res := mustRun(t, s); res.Batch == nil || res.Batch.TotalTime <= 0 {
		t.Fatalf("POLY:100 n=2: %+v", res)
	}
}

func TestEngineRunManyOrderAndError(t *testing.T) {
	var eng Engine
	scenarios := []Scenario{
		{Model: Abstract(), Algorithm: MustAlgorithm("BEB"), N: 20, Options: []Option{WithSeed(1)}},
		{Model: Abstract(), Algorithm: MustAlgorithm("STB"), N: 40, Options: []Option{WithSeed(2)}},
		{Model: WiFi(), Algorithm: MustAlgorithm("LLB"), N: 15, Options: []Option{WithSeed(3)}},
	}
	results, err := eng.RunMany(t.Context(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(scenarios) {
		t.Fatalf("got %d results", len(results))
	}
	for i, s := range scenarios {
		if results[i].Batch == nil || results[i].Batch.N != s.N || results[i].Batch.Model != s.Model.Name() {
			t.Errorf("result %d does not match its scenario: %+v", i, results[i].Batch)
		}
	}

	// An invalid scenario surfaces as the first-by-index error; the valid
	// ones still produce results.
	bad := append([]Scenario{{Model: WiFi(), N: 0}}, scenarios...)
	results, err = eng.RunMany(t.Context(), bad)
	if err == nil {
		t.Fatal("invalid scenario not reported")
	}
	if results[1].Batch == nil {
		t.Error("valid scenario result missing after sibling error")
	}
}

// TestEngineRunManyRawSeedCells pins the path the figure regenerator takes:
// a RunMany cell carrying WithRawSeed() + WithSeed(s) equals a serial
// Engine.Run of the same scenario and differs from the derived-seed run;
// and with a Store, RunMany of sc.WithOptions(WithSeed(k)) replays the
// record Sweep([]Scenario{sc}, []uint64{k}) wrote, so figure stores keep
// their keys.
func TestEngineRunManyRawSeedCells(t *testing.T) {
	ctx := t.Context()
	sc := Scenario{Model: Abstract(), Algorithm: MustAlgorithm("BEB"), N: 50,
		Options: []Option{WithRawSeed()}}
	cell := sc.WithOptions(WithSeed(99))
	var eng Engine
	many, err := eng.RunMany(ctx, []Scenario{cell})
	if err != nil {
		t.Fatal(err)
	}
	if serial := mustRun(t, cell); !reflect.DeepEqual(many[0], serial) {
		t.Errorf("RunMany raw-seed cell diverged from serial Run:\n%+v\n%+v", *many[0].Batch, *serial.Batch)
	}
	derived := mustRun(t, Scenario{Model: sc.Model, Algorithm: sc.Algorithm, N: sc.N,
		Options: []Option{WithSeed(99)}})
	if reflect.DeepEqual(many[0], derived) {
		t.Error("raw-seed RunMany cell equals the derived-seed run")
	}

	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng.Store = st
	const k = 7
	swept := drain(t, eng.Sweep(ctx, []Scenario{sc}, []uint64{k}))
	misses := st.Stats().Misses
	replayed, err := eng.RunMany(ctx, []Scenario{sc.WithOptions(WithSeed(k))})
	if err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Misses != misses || s.Hits != 1 {
		t.Errorf("RunMany after Sweep: hits=%d misses=%d (was %d), want a replay", s.Hits, s.Misses, misses)
	}
	if !reflect.DeepEqual(replayed[0], swept[0].Result) {
		t.Error("replayed RunMany cell differs from the swept cell")
	}
}
