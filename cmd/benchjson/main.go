// Command benchjson regenerates the committed benchmark baselines
// (BENCH_*.json): it runs a set of benchmarks through `go test -bench`,
// parses the standard output format, aggregates repeated runs by median,
// and writes one machine-readable JSON file. Committing the output gives
// the repo a perf trajectory — every optimization PR regenerates the file
// and the diff IS the claimed speedup.
//
//	go run ./cmd/benchjson -o BENCH_baseline.json
//	go run ./cmd/benchjson -bench 'BenchmarkFig0[34]' -count 3 -o BENCH_figs.json
//
// With -check, instead of writing a file the tool compares the fresh run
// against a committed baseline and fails if any shared benchmark's
// allocs/op regressed by more than 1.5x or its ns/op by more than 2x:
//
//	go run ./cmd/benchjson -count 1 -benchtime 1x -check BENCH_baseline.json
//
// allocs/op is the primary comparison metric because it is a deterministic
// property of the code path — unlike ns/op it does not depend on the CI
// machine, so a tight gate works with -benchtime 1x and never flakes on a
// noisy runner. ns/op gets a looser bound (>2x) that still catches an
// algorithmic regression without tripping on runner variance.
//
// Medians are taken per metric across -count runs, so one descheduled run
// doesn't skew the committed number. No timestamp is embedded; git
// history dates the baseline, and keeping the file a pure function of the
// benchmark output makes diffs reviewable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// sample is one parsed benchmark line.
type sample struct {
	iters   int64
	metrics map[string]float64 // unit -> value (ns/op, B/op, allocs/op, ...)
}

// Result is the committed aggregate for one benchmark.
type Result struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BPerOp      float64            `json:"b_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	Samples     int                `json:"samples"`
}

// File is the schema of a BENCH_*.json artifact.
type File struct {
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Bench      string            `json:"bench"`
	Count      int               `json:"count"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	bench := flag.String("bench", "^Benchmark(Sweep(Serial|Parallel|Cached|Observed|Abstract)|ServeWarm)$",
		"benchmark regex passed to go test -bench")
	count := flag.Int("count", 5, "runs per benchmark; the committed value is the median")
	pkg := flag.String("pkg", ".", "package to benchmark")
	out := flag.String("o", "", "output file (default stdout)")
	benchtime := flag.String("benchtime", "", "go test -benchtime value (default the go tool's)")
	check := flag.String("check", "",
		"baseline file to compare against instead of writing output; fails on >1.5x allocs/op or >2x ns/op regression")
	flag.Parse()

	args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem",
		"-count", strconv.Itoa(*count)}
	if *benchtime != "" {
		args = append(args, "-benchtime", *benchtime)
	}
	args = append(args, *pkg)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: go %s: %v\n", strings.Join(args, " "), err)
		os.Exit(1)
	}

	samples := parse(string(raw))
	if len(samples) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no benchmark lines in go test output:\n%s", raw)
		os.Exit(1)
	}

	file := File{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Bench:      *bench,
		Count:      *count,
		Benchmarks: aggregate(samples),
	}
	if *check != "" {
		os.Exit(checkBaseline(*check, file.Benchmarks))
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		fmt.Printf("%s", data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %d benchmarks to %s\n", len(file.Benchmarks), *out)
}

// allocRegressionFactor is the -check failure threshold on allocs/op: a
// benchmark fails the gate when it exceeds the baseline by more than this
// factor. With pooled Txs and events the steady-state count is small and
// deterministic, so the gate can afford to be tighter than the original 2x
// while still tolerating ordinary code growth; a reintroduced per-event or
// per-transmission allocation moves the counter by integer multiples.
const allocRegressionFactor = 1.5

// nsRegressionFactor is the -check failure threshold on ns/op. Wall time
// depends on the runner, so the bound stays loose (>2x) — it exists to
// catch algorithmic regressions (an accidental O(n) scan back in a hot
// loop), not to police noise.
const nsRegressionFactor = 2.0

// checkBaseline compares fresh results against a committed baseline file and
// returns the process exit code. Benchmarks present on only one side are
// reported but do not fail the gate (the baseline regenerator, not CI,
// decides the benchmark set).
func checkBaseline(path string, fresh map[string]Result) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	var base File
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: parsing %s: %v\n", path, err)
		return 1
	}
	names := make([]string, 0, len(fresh))
	for name := range fresh {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := false
	for _, name := range names {
		got := fresh[name]
		want, ok := base.Benchmarks[name]
		if !ok {
			fmt.Printf("benchjson: %s: not in baseline, skipping\n", name)
			continue
		}
		if want.AllocsPerOp <= 0 {
			fmt.Printf("benchjson: %s: baseline has no allocs/op, skipping\n", name)
			continue
		}
		ratio := got.AllocsPerOp / want.AllocsPerOp
		status := "ok"
		if ratio > allocRegressionFactor {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("benchjson: %s: allocs/op %.0f vs baseline %.0f (%.2fx) %s\n",
			name, got.AllocsPerOp, want.AllocsPerOp, ratio, status)
		if want.NsPerOp > 0 {
			nsRatio := got.NsPerOp / want.NsPerOp
			nsStatus := "ok"
			if nsRatio > nsRegressionFactor {
				nsStatus = "FAIL"
				failed = true
			}
			fmt.Printf("benchjson: %s: ns/op %.0f vs baseline %.0f (%.2fx) %s\n",
				name, got.NsPerOp, want.NsPerOp, nsRatio, nsStatus)
		}
	}
	baseNames := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		baseNames = append(baseNames, name)
	}
	sort.Strings(baseNames)
	for _, name := range baseNames {
		if _, ok := fresh[name]; !ok {
			fmt.Printf("benchjson: %s: in baseline but not run\n", name)
		}
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchjson: regression past the gate (allocs/op >%.1fx or ns/op >%.1fx) vs %s\n",
			allocRegressionFactor, nsRegressionFactor, path)
		return 1
	}
	return 0
}

// parse extracts benchmark result lines from go test output. A line looks
// like:
//
//	BenchmarkSweepSerial-8  12  95131234 ns/op  1234 B/op  56 allocs/op  8.000 gomaxprocs
func parse(out string) map[string][]sample {
	samples := make(map[string][]sample)
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		// Strip the -GOMAXPROCS suffix the testing package appends.
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		s := sample{iters: iters, metrics: make(map[string]float64)}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			s.metrics[fields[i+1]] = v
		}
		samples[name] = append(samples[name], s)
	}
	return samples
}

// aggregate folds repeated runs into per-metric medians.
func aggregate(samples map[string][]sample) map[string]Result {
	out := make(map[string]Result, len(samples))
	// encoding/json sorts map keys on marshal, but build deterministically
	// anyway so any future non-map serialization stays stable.
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		runs := samples[name]
		units := make(map[string][]float64)
		for _, s := range runs {
			for unit, v := range s.metrics {
				units[unit] = append(units[unit], v)
			}
		}
		r := Result{Samples: len(runs)}
		for unit, vals := range units {
			m := median(vals)
			switch unit {
			case "ns/op":
				r.NsPerOp = m
			case "B/op":
				r.BPerOp = m
			case "allocs/op":
				r.AllocsPerOp = m
			default:
				if r.Metrics == nil {
					r.Metrics = make(map[string]float64)
				}
				r.Metrics[unit] = m
			}
		}
		out[name] = r
	}
	return out
}

func median(vals []float64) float64 {
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}
