// Benchmarks regenerating every figure and table of the paper's evaluation
// at reduced (shape-preserving) fidelity, one benchmark per artifact, plus
// the ablation benches DESIGN.md calls out. Each reports headline medians as
// custom metrics so `go test -bench` output doubles as a miniature results
// table. Full-fidelity regeneration lives in cmd/figures.
package repro_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// benchConfig is small enough for -bench runs while preserving shapes.
func benchConfig() experiments.Config {
	return experiments.Config{Trials: 3, NMax: 40, NStep: 20, Seed: 1}
}

// runFigure benchmarks one registered experiment and reports the last-point
// median of each series as a metric.
func runFigure(b *testing.B, id string, cfg experiments.Config) {
	gen, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	var tab repro.Table
	for i := 0; i < b.N; i++ {
		tab = gen.Run(cfg)
	}
	for _, s := range tab.Series {
		if len(s.Points) == 0 {
			continue
		}
		b.ReportMetric(s.Points[len(s.Points)-1].Median, s.Name+"_median")
	}
}

func BenchmarkFig03CWSlots64B(b *testing.B)      { runFigure(b, "fig3", benchConfig()) }
func BenchmarkFig04CWSlots1024B(b *testing.B)    { runFigure(b, "fig4", benchConfig()) }
func BenchmarkFig05CWSlotsAbstract(b *testing.B) { runFigure(b, "fig5", benchConfig()) }
func BenchmarkFig06CWSlotsHalf(b *testing.B)     { runFigure(b, "fig6", benchConfig()) }
func BenchmarkFig07TotalTime64B(b *testing.B)    { runFigure(b, "fig7", benchConfig()) }
func BenchmarkFig08TotalTime1024B(b *testing.B)  { runFigure(b, "fig8", benchConfig()) }
func BenchmarkFig09HalfTime64B(b *testing.B)     { runFigure(b, "fig9", benchConfig()) }
func BenchmarkFig10HalfTime1024B(b *testing.B)   { runFigure(b, "fig10", benchConfig()) }
func BenchmarkFig11MaxAckTimeouts(b *testing.B)  { runFigure(b, "fig11", benchConfig()) }
func BenchmarkFig12AckTimeoutWait(b *testing.B)  { runFigure(b, "fig12", benchConfig()) }

func BenchmarkFig13Trace(b *testing.B) {
	cfg := benchConfig()
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		if out, _, err = experiments.RunTrace(b.Context(), cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(out)), "render_bytes")
}

func BenchmarkFig14PayloadRegression(b *testing.B) {
	cfg := benchConfig()
	cfg.NMax = 40   // n for the fixed-size batch
	cfg.NStep = 450 // payload step
	runFigure(b, "fig14", cfg)
}

func BenchmarkFig15LargeN(b *testing.B) {
	cfg := experiments.Config{Trials: 3, NMax: 20000, NStep: 10000, Seed: 1}
	runFigure(b, "fig15", cfg)
}

func BenchmarkFig16CollisionRatios(b *testing.B) {
	cfg := experiments.Config{Trials: 3, NMax: 20000, NStep: 10000, Seed: 1}
	runFigure(b, "fig16", cfg)
}

func BenchmarkFig18SizeEstimates(b *testing.B)    { runFigure(b, "fig18", benchConfig()) }
func BenchmarkFig19BestOfKTotalTime(b *testing.B) { runFigure(b, "fig19", benchConfig()) }

func BenchmarkTableIIICollisions(b *testing.B) {
	cfg := experiments.Config{Trials: 3, NMax: 8192, Seed: 1}
	runFigure(b, "tab3", cfg)
}

func BenchmarkDecomposition(b *testing.B) {
	cfg := experiments.Config{Trials: 3, NMax: 60, Seed: 1}
	runFigure(b, "decomp", cfg)
}

func BenchmarkRTSCTS(b *testing.B) {
	cfg := experiments.Config{Trials: 3, NMax: 40, NStep: 1, Seed: 1}
	runFigure(b, "rts", cfg)
}

func BenchmarkMinPacket(b *testing.B) {
	cfg := experiments.Config{Trials: 3, NMax: 40, Seed: 1}
	runFigure(b, "minpkt", cfg)
}

// --- Ablation benches (DESIGN.md "Key design decisions") -------------------

func BenchmarkAblationCapture(b *testing.B) {
	cfg := experiments.Config{Trials: 3, NMax: 24, Seed: 1}
	runFigure(b, "ablation-capture", cfg)
}

func BenchmarkAblationAlignment(b *testing.B) {
	cfg := experiments.Config{Trials: 3, NMax: 100, NStep: 50, Seed: 1}
	runFigure(b, "ablation-align", cfg)
}

func BenchmarkAblationAckTimeout(b *testing.B) {
	cfg := experiments.Config{Trials: 3, NMax: 40, Seed: 1}
	runFigure(b, "ablation-ackto", cfg)
}

func BenchmarkInstantDetectSpectrum(b *testing.B) {
	cfg := experiments.Config{Trials: 3, NMax: 60, Seed: 1}
	runFigure(b, "instant", cfg)
}

func BenchmarkSaturatedThroughput(b *testing.B) {
	cfg := experiments.Config{Trials: 3, NMax: 20, NStep: 10, Seed: 1}
	runFigure(b, "tput", cfg)
}

// --- Engine.Sweep parallel speedup -----------------------------------------
//
// The same 4-scenario × 8-seed grid executed through Engine.Sweep with the
// full worker pool vs one worker. Cells are independent simulations with
// per-cell derived RNG streams, so both runs produce bit-identical results;
// on a multi-core machine the parallel variant's ns/op pins the speedup
// (≥2× on 4 cores, scaling with GOMAXPROCS).

func sweepBenchGrid() ([]repro.Scenario, []uint64) {
	algos := repro.PaperAlgorithmList()
	scenarios := make([]repro.Scenario, len(algos))
	for i, a := range algos {
		scenarios[i] = repro.Scenario{Model: repro.WiFi(), Algorithm: a, N: 100}
	}
	return scenarios, []uint64{1, 2, 3, 4, 5, 6, 7, 8}
}

// sweepAll runs one sweep of the grid on eng and fails b on any cell error
// or a short stream.
func sweepAll(b *testing.B, eng *repro.Engine, scenarios []repro.Scenario, seeds []uint64) {
	cells := 0
	for cell := range eng.Sweep(context.Background(), scenarios, seeds) {
		if cell.Err != nil {
			b.Fatal(cell.Err)
		}
		cells++
	}
	if cells != len(scenarios)*len(seeds) {
		b.Fatalf("got %d cells", cells)
	}
}

func runSweepBench(b *testing.B, workers int) {
	scenarios, seeds := sweepBenchGrid()
	eng := repro.Engine{Workers: workers}
	for i := 0; i < b.N; i++ {
		sweepAll(b, &eng, scenarios, seeds)
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

func BenchmarkSweepSerial(b *testing.B)   { runSweepBench(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { runSweepBench(b, 0) }

// BenchmarkSweepAbstract is the abstract model's row of the ledger: the
// four paper algorithms and tree splitting at n = 10^4, where the
// asymptotic argument of Figures 5, 15 and 16 lives, two seeds each on one
// worker. Its time is the slotted kernels' time.
func BenchmarkSweepAbstract(b *testing.B) {
	var scenarios []repro.Scenario
	for _, a := range repro.PaperAlgorithmList() {
		scenarios = append(scenarios, repro.Scenario{Model: repro.Abstract(), Algorithm: a, N: 10000})
	}
	scenarios = append(scenarios, repro.Scenario{Model: repro.Abstract(), N: 10000, Workload: repro.TreeWorkload{}})
	seeds := []uint64{1, 2}
	eng := repro.Engine{Workers: 1}
	for i := 0; i < b.N; i++ {
		sweepAll(b, &eng, scenarios, seeds)
	}
}

// BenchmarkSweepCached runs the same grid as BenchmarkSweepParallel against
// a pre-warmed result store: every cell replays from the log instead of
// simulating, so the ns/op gap to BenchmarkSweepParallel is the memoization
// speedup of the serving path.
func BenchmarkSweepCached(b *testing.B) {
	scenarios, seeds := sweepBenchGrid()
	st, err := repro.OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	eng := repro.Engine{Store: st}
	sweepAll(b, &eng, scenarios, seeds) // populate the store; everything after this is replay
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweepAll(b, &eng, scenarios, seeds)
	}
	s := st.Stats()
	if s.Misses != int64(len(scenarios)*len(seeds)) {
		b.Fatalf("benchmark loop simulated: %d misses, want only the warm-up's", s.Misses)
	}
	b.ReportMetric(float64(s.Hits)/float64(b.N), "hits/op")
}

// benchObserver is a production-shaped Observer: registry counters and a
// histogram fed on every cell, the way internal/serve's observer does.
type benchObserver struct {
	cells  *obs.Counter
	events *obs.Counter
	simDur *obs.Histogram
}

func (o *benchObserver) ObserveCell(c repro.CellInfo) {
	o.cells.Inc()
	o.events.Add(int64(c.Sim.EventsFired))
	o.simDur.Observe(float64(c.SimDuration) / float64(time.Millisecond))
}

// BenchmarkSweepObserved is BenchmarkSweepParallel with an Observer
// attached: the delta to that benchmark is the all-in cost of per-cell
// instrumentation (timestamps, kernel-stats copy, registry updates).
func BenchmarkSweepObserved(b *testing.B) {
	scenarios, seeds := sweepBenchGrid()
	reg := obs.NewRegistry()
	o := &benchObserver{
		cells:  reg.Counter("bench_cells_total", ""),
		events: reg.Counter("bench_events_total", ""),
		simDur: reg.Histogram("bench_sim_duration_ms", "", obs.ExpBuckets(0.1, 2, 20)),
	}
	eng := repro.Engine{Observer: o}
	for i := 0; i < b.N; i++ {
		sweepAll(b, &eng, scenarios, seeds)
	}
	if got := o.cells.Value(); got != int64(b.N*len(scenarios)*len(seeds)) {
		b.Fatalf("observer saw %d cells", got)
	}
}

// --- Single-run microbenches for the public API ----------------------------

// benchRun runs s once per iteration on a zero Engine, reseeded with the
// iteration index.
func benchRun(b *testing.B, s repro.Scenario) {
	var eng repro.Engine
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), s.WithOptions(repro.WithSeed(uint64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWiFiBatchBEB100(b *testing.B) {
	benchRun(b, repro.Scenario{Model: repro.WiFi(), Algorithm: repro.MustAlgorithm("BEB"), N: 100})
}

func BenchmarkAbstractBatchBEB1000(b *testing.B) {
	benchRun(b, repro.Scenario{Model: repro.Abstract(), Algorithm: repro.MustAlgorithm("BEB"), N: 1000})
}

func BenchmarkBestOfK100(b *testing.B) {
	benchRun(b, repro.Scenario{Model: repro.WiFi(), N: 100, Workload: repro.BestOfKWorkload{K: 3}})
}

func BenchmarkTreeBatch1000(b *testing.B) {
	benchRun(b, repro.Scenario{Model: repro.Abstract(), N: 1000, Workload: repro.TreeWorkload{}})
}

func BenchmarkContinuousSaturated20(b *testing.B) {
	benchRun(b, repro.Scenario{Model: repro.WiFi(), Algorithm: repro.MustAlgorithm("BEB"), N: 20,
		Workload: repro.ContinuousWorkload{Arrivals: repro.Saturated(), Horizon: 50 * time.Millisecond},
		Options:  []repro.Option{repro.WithConfig(func(c *repro.MACConfig) { c.CWMin = 16 })}})
}
