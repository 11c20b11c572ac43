// Package harness holds the worker pool and the table/plot rendering the
// figure regenerator and the public engine share. ForEach is the one
// parallel primitive of the repository; Table/Series/Point are the rendered
// shape of a figure. The sweep and aggregation machinery that used to live
// here (SweepSpec and friends) moved behind the public API: Engine.Sweep
// fans grids out, and Engine.Aggregate summarizes them the way the paper
// reports its figures.
package harness

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/stats"
)

// Point is one aggregated x-position of a series.
type Point struct {
	X       float64
	Median  float64
	Lo, Hi  float64 // 95% CI of the median
	Mean    float64
	Trials  int // trials kept after outlier filtering
	Removed int // outliers removed
}

// Series is a named line in a figure.
type Series struct {
	Name   string
	Points []Point
}

// Value returns the median at x, or NaN if x is absent.
func (s Series) Value(x float64) float64 {
	for _, p := range s.Points {
		if p.X == x {
			return p.Median
		}
	}
	return nan()
}

func nan() float64 { var z float64; return 0 / z }

// Table is a full figure or table: several series over a shared x-axis.
type Table struct {
	ID     string // e.g. "fig7"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Notes carries free-form findings (regression summaries, percent
	// deltas) printed with the table.
	Notes []string
}

// SeriesByName returns the named series, or nil.
func (t Table) SeriesByName(name string) *Series {
	for i := range t.Series {
		if t.Series[i].Name == name {
			return &t.Series[i]
		}
	}
	return nil
}

// PercentVsBaseline returns 100·(a−b)/b at the largest shared x, where b is
// the baseline series — the paper's headline percentage convention
// (baseline is always BEB).
func (t Table) PercentVsBaseline(series, baseline string) (float64, error) {
	a := t.SeriesByName(series)
	b := t.SeriesByName(baseline)
	if a == nil || b == nil || len(a.Points) == 0 || len(b.Points) == 0 {
		return 0, fmt.Errorf("harness: series %q or %q missing", series, baseline)
	}
	ax := a.Points[len(a.Points)-1]
	bx := b.Points[len(b.Points)-1]
	if ax.X != bx.X {
		return 0, fmt.Errorf("harness: series end at different x: %v vs %v", ax.X, bx.X)
	}
	return stats.PercentChange(ax.Median, bx.Median), nil
}

// ForEach runs fn(i) for every i in [0, n) across a pool of up to workers
// goroutines (0 = GOMAXPROCS) and blocks until all calls return. It is the
// single parallel primitive of the repository: the public
// Engine.Sweep/RunMany, and so every figure sweep, fan out through it. Work
// items must be independent; determinism comes from deriving per-item RNG
// streams, not from scheduling order.
func ForEach(workers, n int, fn func(i int)) {
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

// IntXs builds the x-axis lo, lo+step, ..., hi (inclusive when aligned).
func IntXs(lo, hi, step int) []float64 {
	if step <= 0 || hi < lo {
		panic("harness: bad x-axis range")
	}
	var out []float64
	for x := lo; x <= hi; x += step {
		out = append(out, float64(x))
	}
	return out
}
