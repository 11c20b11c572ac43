package repro

// Parallel execution of scenario grids. Engine.Sweep fans scenarios × seeds
// across the worker pool (forEach, at the bottom of this file — the one
// parallel primitive, behind every figure sweep too) and streams cells back
// in stable order; Engine.RunMany is the slice-shaped convenience for
// heterogeneous scenario lists. Determinism is free: every run derives its RNG stream
// from (seed, model, algorithm, n) labels, so results are bit-identical to
// serial execution regardless of GOMAXPROCS or scheduling order.

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/rng"
)

// Cell is one completed cell of a sweep grid: scenario index i, seed index
// j, streamed in row-major (scenario-major, then seed) order.
type Cell struct {
	// ScenarioIndex and SeedIndex locate the cell in the input grid.
	ScenarioIndex int
	SeedIndex     int
	// Seed is the seed the cell ran with (overriding any WithSeed in the
	// scenario's options).
	Seed uint64
	// Result holds the outcome when Err is nil.
	Result Result
	// Err is the validation, unsupported-workload, simulation (ErrNoProgress)
	// or context error.
	Err error
	// JSON is set only by Engine.SweepJSON, on a successful cell served
	// through a Store: the Result's encoding, json.Marshal(Result) — the
	// store record's payload, byte for byte. Result is then left zero.
	// Cells that shared one simulation share these bytes: read only.
	JSON json.RawMessage
}

// Seeds derives n statistically independent seeds from base via
// rng.DeriveSeed — the sweep-grid counterpart of the figure regenerator's
// per-trial stream derivation. Seeds(base, n) is deterministic in (base, n).
func Seeds(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.DeriveSeed(base, fmt.Sprintf("sweep|trial=%d", i))
	}
	return out
}

// Sweep runs every scenario × seed cell of the grid on the engine's worker
// pool and streams the cells in stable row-major order: all seeds of
// scenario 0, then scenario 1, and so on, regardless of which worker
// finishes first. Each cell runs the scenario reseeded with its grid seed,
// so a cell's Result is bit-identical to a serial Engine.Run call with the
// same seed.
//
// Cancelling ctx stops the sweep early: cells not yet started report
// ctx.Err(), and the stream closes without emitting cells past the
// cancellation point. Either drain the channel or cancel ctx when
// abandoning it early — breaking out of the range with an uncancelled
// context leaks the sweep's forwarding goroutine.
//
// Scenarios carrying WithTrace are rejected per cell: cells run
// concurrently, and interleaving many runs into one recorder would race.
// Trace single runs with Engine.Run.
//
// With a Store attached to the engine, each cell is first looked up by
// (Scenario.Fingerprint, seed) and replayed from the log on a hit; see
// Engine.Store. Order and cell values are identical either way.
func (e *Engine) Sweep(ctx context.Context, scenarios []Scenario, seeds []uint64) <-chan Cell {
	return e.sweep(ctx, scenarios, seeds, true)
}

// SweepJSON is Sweep for consumers that want each Result as JSON — the
// serving layer's NDJSON stream. A cell served through the engine's Store
// carries its record payload in Cell.JSON instead of a decoded Result: a
// replay is never parsed, and a miss hands back the bytes its write-through
// just encoded. Cells without a store, and failed cells, carry Result (or
// Err) as in Sweep. Ordering and cancellation are those of Sweep.
func (e *Engine) SweepJSON(ctx context.Context, scenarios []Scenario, seeds []uint64) <-chan Cell {
	return e.sweep(ctx, scenarios, seeds, false)
}

// sweep is the one sweep core behind Sweep and SweepJSON: the worker pool,
// the stable slot order and cancellation. Cell (si, ti) runs scenarios[si]
// with seeds[ti]. decode selects what a store-served cell carries: its
// Result, or (for SweepJSON) its payload in Cell.JSON.
func (e *Engine) sweep(ctx context.Context, scenarios []Scenario, seeds []uint64, decode bool) <-chan Cell {
	out := make(chan Cell)
	trials := len(seeds)
	cells := len(scenarios) * trials
	if cells <= 0 {
		close(out)
		return out
	}
	slots := make([]chan Cell, cells)
	for i := range slots {
		slots[i] = make(chan Cell, 1)
	}

	// With a store attached, fingerprint each scenario once up front — the
	// address is seed-independent, so all of a scenario's cells share it.
	fps := e.fingerprints(scenarios)

	// Workers fill slots in whatever order the pool schedules.
	go func() {
		forEach(e.Workers, cells, func(i int) {
			si, ji := i/trials, i%trials
			c := Cell{ScenarioIndex: si, SeedIndex: ji, Seed: seeds[ji]}
			if err := ctx.Err(); err != nil {
				c.Err = err
			} else if err := rejectTracer(scenarios[si]); err != nil {
				c.Err = err
			} else {
				var payload json.RawMessage
				c.Result, payload, c.Err = e.runCell(ctx, scenarios[si], c.Seed, fps[si], decode)
				if !decode && payload != nil {
					c.Result, c.JSON = Result{}, payload
				}
			}
			slots[i] <- c
		})
	}()

	// The forwarder alone touches out, draining slots in stable order and
	// stopping at the first sign of cancellation.
	go func() {
		defer close(out)
		for i := range slots {
			if ctx.Err() != nil {
				return
			}
			c := <-slots[i]
			select {
			case out <- c:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}

// fingerprints computes each scenario's content address for the store. An
// unfingerprintable scenario — or every scenario, when no store is attached
// — gets the empty address, which runCell treats as "execute uncached".
func (e *Engine) fingerprints(scenarios []Scenario) []string {
	fps := make([]string, len(scenarios))
	if e.Store == nil {
		return fps
	}
	for i, s := range scenarios {
		fps[i], _ = s.Fingerprint()
	}
	return fps
}

// runCell executes one grid cell — the scenario reseeded with its grid
// seed. With a store attached and a valid fingerprint, the cell is served
// through the store: replayed on a hit, simulated and written through on a
// miss, deduplicated against identical in-flight cells. Replayed cells are
// bit-identical to simulated ones, so callers cannot tell the difference.
//
// A store-served cell also returns its record payload (see Store.do); with
// decode false a replay returns only that, and a zero Result.
//
// With an Observer attached, the cell is also timed stage by stage and
// reported once final. Every clock read hangs off info, which is non-nil
// only then, so an unobserved cell reads no clock and allocates nothing
// for observation.
func (e *Engine) runCell(ctx context.Context, s Scenario, seed uint64, fp string, decode bool) (Result, json.RawMessage, error) {
	var info *CellInfo
	var putDur *time.Duration
	if e.Observer != nil {
		info = &CellInfo{Scenario: s, Seed: seed, Fingerprint: fp, Start: time.Now()}
		putDur = &info.PutDuration
	}
	simulate := func() (Result, error) {
		var t0 time.Time
		if info != nil {
			info.Simulated = true
			t0 = time.Now()
		}
		if e.Admit != nil {
			release, err := e.Admit(ctx)
			if info != nil {
				info.AdmitWait = time.Since(t0)
				t0 = time.Now()
			}
			if err != nil {
				return Result{}, err
			}
			defer release()
		}
		res, sim, err := execute(ctx, s.WithOptions(WithSeed(seed)))
		if info != nil {
			info.SimDuration = time.Since(t0)
			info.Sim = sim
		}
		return res, err
	}
	var res Result
	var payload json.RawMessage
	var err error
	if e.Store == nil || fp == "" {
		res, err = simulate()
	} else {
		res, payload, err = e.Store.do(fp, seed, decode, simulate, putDur)
	}
	if info != nil {
		info.Total = time.Since(info.Start)
		info.Err = err
		e.Observer.ObserveCell(*info)
	}
	return res, payload, err
}

// rejectTracer refuses scenarios that would feed a shared trace.Recorder
// from concurrent workers; the Recorder is an unsynchronized append and a
// merged multi-run timeline would be meaningless anyway.
func rejectTracer(s Scenario) error {
	if buildOptions(s.Options).tracer != nil {
		return fmt.Errorf("repro: WithTrace is not supported in parallel execution (%s); trace single runs with Engine.Run", s)
	}
	return nil
}

// RunMany executes scenarios in parallel on the engine's worker pool,
// seeding each from its own Options, and returns results in input order.
// The returned error is the first (lowest-index) scenario error, if any;
// results of successful scenarios are valid either way. A cancelled context
// makes unstarted scenarios fail with ctx.Err(). Like Sweep, RunMany
// rejects scenarios carrying WithTrace, and like Sweep it serves scenarios
// from the engine's Store when one is attached (the seed resolved from the
// scenario's own Options keys the record).
func (e *Engine) RunMany(ctx context.Context, scenarios []Scenario) ([]Result, error) {
	results := make([]Result, len(scenarios))
	errs := make([]error, len(scenarios))
	fps := e.fingerprints(scenarios)
	forEach(e.Workers, len(scenarios), func(i int) {
		if errs[i] = rejectTracer(scenarios[i]); errs[i] != nil {
			return
		}
		results[i], _, errs[i] = e.runCell(ctx, scenarios[i], buildOptions(scenarios[i].Options).seed, fps[i], true)
	})
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// forEach runs fn(i) for every i in [0, n) across a pool of up to workers
// goroutines (0 = GOMAXPROCS) and blocks until all calls return. It is the
// single parallel primitive of the repository: Engine.Sweep/RunMany, and so
// every figure sweep, fan out through it. Work items must be independent;
// determinism comes from deriving per-item RNG streams, not from scheduling
// order.
func forEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}
