package main

// The figure workloads: the cold cmd/figures path, with the benchmark
// consuming Engine.Sweep into an Aggregator and no store attached.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/serve"
)

// figureWorkload is one scenario grid swept for a number of trials sized
// from --seconds.
type figureWorkload struct {
	scenarios []repro.Scenario
	metrics   []repro.Metric
	// cellsPerSec is the sweep rate measured on the reference machine (see
	// README.md); trials = seconds × cellsPerSec / scenarios, so a run does
	// fixed work that takes about --seconds there.
	cellsPerSec float64
	// refMaxN selects the reference cells computed serially in set-up:
	// trial 0 of every scenario with N <= refMaxN.
	refMaxN int
}

var paperAlgorithms = []string{"BEB", "LB", "LLB", "STB"}

// figureWiFi is the 802.11g DCF grid of the MAC figures: four algorithms ×
// n × payload, plus Best-of-3.
func figureWiFi(ns, bokNs []int) figureWorkload {
	var sc []repro.Scenario
	for _, payload := range []int{64, 1024} {
		for _, a := range paperAlgorithms {
			for _, n := range ns {
				sc = append(sc, repro.Scenario{Model: repro.WiFi(), Algorithm: repro.MustAlgorithm(a), N: n,
					Options: []repro.Option{repro.WithPayload(payload)}})
			}
		}
	}
	for _, n := range bokNs {
		sc = append(sc, repro.Scenario{Model: repro.WiFi(), N: n, Workload: repro.BestOfKWorkload{K: 3}})
	}
	return figureWorkload{
		scenarios:   sc,
		metrics:     []repro.Metric{repro.MakespanSlots(), repro.TotalTime(), repro.CollisionCount()},
		cellsPerSec: 158,
		refMaxN:     math.MaxInt,
	}
}

// figureAbstract is the abstract-model grid of Fig. 15/16 and Table III:
// four algorithms × n, plus tree splitting at the largest n.
func figureAbstract(ns []int) figureWorkload {
	var sc []repro.Scenario
	for _, a := range paperAlgorithms {
		for _, n := range ns {
			sc = append(sc, repro.Scenario{Model: repro.Abstract(), Algorithm: repro.MustAlgorithm(a), N: n})
		}
	}
	sc = append(sc, repro.Scenario{Model: repro.Abstract(), N: ns[len(ns)-1], Workload: repro.TreeWorkload{}})
	return figureWorkload{
		scenarios:   sc,
		metrics:     []repro.Metric{repro.MakespanSlots(), repro.CollisionRate()},
		cellsPerSec: 4.6,
		refMaxN:     ns[0],
	}
}

// cellClock times every simulation through Engine.Admit, the public hook
// that brackets each simulated cell; the untraced run's cell latency.
type cellClock struct {
	mu sync.Mutex
	ms []float64
}

func (c *cellClock) admit(context.Context) (func(), error) {
	start := time.Now()
	return func() {
		d := time.Since(start)
		c.mu.Lock()
		c.ms = append(c.ms, msOf(d))
		c.mu.Unlock()
	}, nil
}

// cellLog is the traced run's Engine.Observer: it keeps every CellInfo.
type cellLog struct {
	mu    sync.Mutex
	infos []repro.CellInfo
}

func (l *cellLog) ObserveCell(c repro.CellInfo) {
	l.mu.Lock()
	l.infos = append(l.infos, c)
	l.mu.Unlock()
}

func (w figureWorkload) run(ctx context.Context, cfg config, tr *tracer) (*measurement, error) {
	// The trials are split into up to `segments` sweeps of at least one
	// trial each.
	total := max(1, int(math.Round(cfg.seconds*w.cellsPerSec/float64(len(w.scenarios)))))
	segs := min(segments, total)
	trials := total / segs
	seeds := repro.Seeds(cfg.seed, trials*segs)
	m := &measurement{layers: map[string]float64{}}

	// Set-up computes the reference cells serially; repeating it is both
	// the set-up timing sample and a determinism check.
	var ref map[int][]byte
	for r := 0; r < setupReps; r++ {
		start := time.Now()
		got, err := w.reference(ctx, seeds[0])
		if err != nil {
			return nil, err
		}
		m.setup = append(m.setup, time.Since(start))
		if ref != nil && !sameEncodings(ref, got) {
			m.problem("set-up repetition %d computed different reference cells", r)
		}
		ref = got
	}

	clock := &cellClock{}
	eng := repro.Engine{Admit: clock.admit}
	var log *cellLog
	if tr != nil {
		log = &cellLog{}
		eng.Observer = log
	}
	cells := make([]repro.Cell, 0, len(seeds)*len(w.scenarios))
	var addUS, finishMS []float64
	var elapsed time.Duration

	// The grid is swept once per segment, each sweep over its own trials
	// and into its own Aggregator, like one figure regeneration.
	before := readMem()
	for s := range segs {
		agg := repro.NewAggregator(w.metrics...)
		start := time.Now()
		for cell := range eng.Sweep(ctx, w.scenarios, seeds[s*trials:(s+1)*trials]) {
			t0 := time.Now()
			err := agg.Add(cell)
			if tr != nil {
				d := time.Since(t0)
				tr.record(0, "aggregate.add", t0, d)
				addUS = append(addUS, usOf(d))
			}
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell)
		}
		finishStart := time.Now()
		rep := agg.Finish()
		finish := time.Since(finishStart)
		d := time.Since(start)
		elapsed += d
		m.rates = append(m.rates, float64(len(w.scenarios)*trials)/d.Seconds())
		tr.record(0, "aggregate.finish", finishStart, finish)
		finishMS = append(finishMS, msOf(finish))
		w.check(m, rep, trials)
	}
	after := readMem()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	m.attempted = int64(len(w.scenarios) * len(seeds))
	m.latency = clock.ms
	for _, c := range cells {
		if c.Err != nil {
			m.failed++
			m.problem("cell %s seed %d failed: %v", w.scenarios[c.ScenarioIndex], c.Seed, c.Err)
		}
	}
	m.failed += m.attempted - int64(len(cells))

	// Outputs are encoded and hashed only now, after the clock stopped.
	h := sha256.New()
	for _, c := range cells {
		line, err := serve.EncodeCell(c)
		if err != nil {
			return nil, err
		}
		if c.Seed == seeds[0] && ref[c.ScenarioIndex] != nil && !bytes.Equal(line, ref[c.ScenarioIndex]) {
			m.problem("%s: parallel sweep cell differs from the serial reference", w.scenarios[c.ScenarioIndex])
		}
		h.Write(line)
	}
	m.digest = fmt.Sprintf("%x", h.Sum(nil))

	if tr != nil {
		figureLayers(m, tr, log.infos, cells, after.sub(before), elapsed)
		m.layers["aggregate.add_us_p50"] = percentile(addUS, 0.5)
		m.layers["aggregate.add_us_p99"] = percentile(addUS, tailQuantile(len(addUS)))
		m.layers["aggregate.finish_ms"] = median(finishMS)
	}
	return m, nil
}

// reference runs trial 0 of the reference scenarios one at a time and
// returns their encoded cells by scenario index.
func (w figureWorkload) reference(ctx context.Context, seed uint64) (map[int][]byte, error) {
	out := map[int][]byte{}
	for i, s := range w.scenarios {
		if s.N > w.refMaxN {
			continue
		}
		res, err := (&repro.Engine{}).Run(ctx, s.WithOptions(repro.WithSeed(seed)))
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", s, err)
		}
		line, err := serve.EncodeCell(repro.Cell{ScenarioIndex: i, Seed: seed, Result: res})
		if err != nil {
			return nil, err
		}
		out[i] = line
	}
	return out, nil
}

func sameEncodings(a, b map[int][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if !bytes.Equal(v, b[k]) {
			return false
		}
	}
	return true
}

// check asserts the report has one row per scenario, each over every
// trial, and that every batch cleared all its stations.
func (w figureWorkload) check(m *measurement, rep *repro.Report, trials int) {
	if len(rep.Rows) != len(w.scenarios) {
		m.problem("report has %d rows for %d scenarios", len(rep.Rows), len(w.scenarios))
		return
	}
	for i, row := range rep.Rows {
		for j, s := range row.Summaries {
			if s.Trials+s.Outliers+row.Failed != trials {
				m.problem("%s metric %d: %d trials + %d outliers, want %d", w.scenarios[i], j, s.Trials, s.Outliers, trials)
			}
		}
		if cw := row.Summaries[0]; !(cw.Median >= float64(w.scenarios[i].N)) {
			m.problem("%s: median CW slots %v below n", w.scenarios[i], cw.Median)
		}
	}
}

// figureLayers derives the per-layer metrics of a traced figure run from the
// observer's cell infos and the cells themselves.
func figureLayers(m *measurement, tr *tracer, infos []repro.CellInfo, cells []repro.Cell, mem memDelta, elapsed time.Duration) {
	var cellMS, overheadMS, macMS, slottedMS []float64
	var busy time.Duration
	var ks repro.SimStats
	for _, c := range infos {
		cellID := tr.record(0, "engine.cell", c.Start, c.Total)
		simStart := c.Start.Add(c.AdmitWait)
		cellMS = append(cellMS, msOf(c.Total))
		overheadMS = append(overheadMS, msOf(c.Total-c.SimDuration-c.AdmitWait))
		busy += c.Total
		if c.Scenario.Model.Name() == "wifi" {
			tr.record(cellID, "mac.sim", simStart, c.SimDuration)
			macMS = append(macMS, msOf(c.SimDuration))
			ks = addKernel(ks, c.Sim)
		} else {
			tr.record(cellID, "slotted.sim", simStart, c.SimDuration)
			slottedMS = append(slottedMS, msOf(c.SimDuration))
		}
	}
	collisions := 0
	for _, c := range cells {
		if b := batchOf(c.Result); b != nil && b.Model == "wifi" {
			collisions += b.Collisions
		}
	}
	l := m.layers
	l["engine.cell_ms_p50"] = percentile(cellMS, 0.5)
	l["engine.cell_ms_p99"] = percentile(cellMS, tailQuantile(len(cellMS)))
	l["engine.busy_frac"] = ratio(busy.Seconds(), elapsed.Seconds()*float64(runtime.GOMAXPROCS(0)))
	l["engine.overhead_ms_mean"] = mean(overheadMS)
	mem.perCell(l, len(cells))
	l["mac.sim_ms_p50"] = percentile(macMS, 0.5)
	l["mac.sim_ms_p99"] = percentile(macMS, tailQuantile(len(macMS)))
	l["mac.sim_s_total"] = sum(macMS) / 1e3
	l["mac.collisions"] = float64(collisions)
	kernelLayers(l, ks, sum(macMS))
	l["slotted.sim_ms_p50"] = percentile(slottedMS, 0.5)
	l["slotted.sim_ms_p99"] = percentile(slottedMS, tailQuantile(len(slottedMS)))
	l["slotted.sim_s_total"] = sum(slottedMS) / 1e3
}

// batchOf returns a result's batch view (best-of-k embeds one).
func batchOf(r repro.Result) *repro.BatchResult {
	if r.Batch != nil {
		return r.Batch
	}
	if r.BestOfK != nil {
		return &r.BestOfK.BatchResult
	}
	return nil
}

// addKernel sums two kernel profiles; the queue high-water mark is a max.
func addKernel(a, b repro.SimStats) repro.SimStats {
	a.EventsScheduled += b.EventsScheduled
	a.EventsFired += b.EventsFired
	a.EventsCanceled += b.EventsCanceled
	a.EventsReused += b.EventsReused
	a.MaxQueueLen = max(a.MaxQueueLen, b.MaxQueueLen)
	a.IdleSlotsElided += b.IdleSlotsElided
	a.TxTotal += b.TxTotal
	a.TxReuses += b.TxReuses
	a.TxRecycles += b.TxRecycles
	a.TxQuarantined += b.TxQuarantined
	return a
}

// kernelLayers sets the event and phy metrics from a summed kernel
// profile and the wall time the MAC simulations took.
func kernelLayers(l map[string]float64, ks repro.SimStats, macMS float64) {
	l["event.fired"] = float64(ks.EventsFired)
	l["event.scheduled"] = float64(ks.EventsScheduled)
	l["event.canceled"] = float64(ks.EventsCanceled)
	l["event.reused_ratio"] = ratio(float64(ks.EventsReused), float64(ks.EventsScheduled))
	l["event.idle_slots_elided"] = float64(ks.IdleSlotsElided)
	l["event.max_queue_len"] = float64(ks.MaxQueueLen)
	l["event.ns_per_event"] = ratio(macMS*1e6, float64(ks.EventsFired))
	l["phy.tx_total"] = float64(ks.TxTotal)
	l["phy.tx_reuse_ratio"] = ratio(float64(ks.TxReuses), float64(ks.TxTotal))
}

// memDelta is the change in the runtime's allocation counters over the
// timed phase.
type memDelta struct{ mallocs, bytes, gcs uint64 }

type memSample runtime.MemStats

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample(ms)
}

func (a memSample) sub(b memSample) memDelta {
	return memDelta{mallocs: a.Mallocs - b.Mallocs, bytes: a.TotalAlloc - b.TotalAlloc, gcs: uint64(a.NumGC - b.NumGC)}
}

func (d memDelta) perCell(l map[string]float64, cells int) {
	l["engine.allocs_per_cell"] = ratio(float64(d.mallocs), float64(cells))
	l["engine.bytes_per_cell"] = ratio(float64(d.bytes), float64(cells))
	l["engine.gc_cycles"] = float64(d.gcs)
}

func msOf(d time.Duration) float64 { return d.Seconds() * 1e3 }
func usOf(d time.Duration) float64 { return d.Seconds() * 1e6 }
