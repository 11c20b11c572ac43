// Command bench is the repository's end-to-end benchmark. It runs one of
// four named workloads through the public API, checks the outputs, and
// prints every metric by name and unit, ending with one JSON line:
//
//	bash bench/run.sh --workload figure-wifi --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all            # every workload, one process each
//	bash bench/run.sh compare A.ndjson B.ndjson # parent vs change, per metric
//
// --trace 1 runs the workload untraced and then traced, and reports the
// per-layer metrics of the traced run (spans go to
// .bench_build/spans-<workload>.ndjson). See README.md for the workloads,
// the metrics and the reference numbers.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

const (
	defaultSeed    = 1
	defaultSeconds = 20
	// setupReps is how many times a run repeats its set-up; setup_s is the
	// median.
	setupReps = 3
	// segments is how many equal parts a run's throughput phase is cut
	// into.
	segments = 10
	// maxProblems bounds how many failed checks a run keeps for its report.
	maxProblems = 20
)

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// dir holds the run's stores and span files.
	dir string
	// pins are the expected output digests (see pins.go).
	pins map[pin]string
}

// measurement is what one pass of a workload measured.
type measurement struct {
	setup []time.Duration
	// rates are the cells/s of each segment of the throughput phase.
	rates []float64
	// latency holds one entry per latency sample, in ms; +Inf marks a
	// failed request, which ranks above every success.
	latency           []float64
	attempted, failed int64
	digest            string
	problems          []string
	layers            map[string]float64
}

func (m *measurement) problem(format string, args ...any) {
	if len(m.problems) < maxProblems {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
}

// cellsPerSec is the median segment rate, so a stall of the machine
// during one segment moves one sample, not the result.
func (m *measurement) cellsPerSec() float64 { return median(append([]float64(nil), m.rates...)) }

// workload is one named input set.
type workload struct {
	name string
	run  func(ctx context.Context, cfg config, tr *tracer) (*measurement, error)
}

// warmNs are the wifi station counts of the serve workloads' warm store.
var warmNs = []int{20, 40, 60, 80, 100}

func workloads() []workload {
	return []workload{
		{"figure-wifi", figureWiFi([]int{30, 70, 110, 150}, []int{50, 150}).run},
		{"figure-abstract", figureAbstract([]int{10_000, 30_000, 100_000}).run},
		{"serve-warm", serveWarm(warmNs, 16).run},
		{"serve-mixed", serveMixed(warmNs, 16).run},
	}
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cells_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. A layer a workload never
// reaches reports 0.
var perLayer = []metricDef{
	{"engine.cell_ms_p50", "ms"}, {"engine.cell_ms_p99", "ms"}, {"engine.busy_frac", "ratio"},
	{"engine.overhead_ms_mean", "ms"}, {"engine.allocs_per_cell", "count"}, {"engine.bytes_per_cell", "B"},
	{"engine.gc_cycles", "count"},
	{"mac.sim_ms_p50", "ms"}, {"mac.sim_ms_p99", "ms"}, {"mac.sim_s_total", "s"}, {"mac.collisions", "count"},
	{"event.fired", "count"}, {"event.scheduled", "count"}, {"event.canceled", "count"},
	{"event.reused_ratio", "ratio"}, {"event.idle_slots_elided", "count"}, {"event.max_queue_len", "count"},
	{"event.ns_per_event", "ns"},
	{"phy.tx_total", "count"}, {"phy.tx_reuse_ratio", "ratio"},
	{"slotted.sim_ms_p50", "ms"}, {"slotted.sim_ms_p99", "ms"}, {"slotted.sim_s_total", "s"},
	{"aggregate.add_us_p50", "us"}, {"aggregate.add_us_p99", "us"}, {"aggregate.finish_ms", "ms"},
	{"store.open_ms", "ms"}, {"store.get_us_p50", "us"}, {"store.get_us_p99", "us"},
	{"store.log_get_us_p50", "us"}, {"store.log_get_us_p99", "us"},
	{"store.hit_cell_us_p50", "us"}, {"store.hit_cell_us_p99", "us"},
	{"store.put_us_p50", "us"}, {"store.put_us_p99", "us"},
	{"store.hit_ratio", "ratio"}, {"store.record_bytes_mean", "B"},
	{"codec.decode_us_p50", "us"}, {"codec.fingerprint_us_p50", "us"},
	{"serve.encode_cell_us_p50", "us"}, {"serve.encode_cell_us_p99", "us"},
	{"serve.server_ms_p50", "ms"}, {"serve.server_ms_p99", "ms"}, {"serve.admit_wait_ms_p99", "ms"},
	{"serve.sims", "count"}, {"serve.unattributed_frac", "ratio"},
	{"loadgen.late_ms_p99", "ms"}, {"loadgen.inflight_max", "count"}, {"loadgen.requests", "count"},
	{"trace.overhead_frac", "ratio"},
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(1)
		}
		return
	}
	ok, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run parses the flags and runs one workload, or every workload in a
// child process each. It reports whether every run was correct.
func run(args []string, stdout, stderr io.Writer) (bool, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", defaultSeconds, "how long the measured phase runs, about")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	record := fs.String("record", "", "append each run's result, tagged with its workload, to this file")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 || fs.NArg() > 0 {
		return false, errors.New("want --seconds > 0, --trace 0 or 1, and no positional arguments")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *name == "all" {
		return runAll(ctx, args, stdout, stderr)
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		dir: ".bench_build", pins: pinnedDigests}
	for _, w := range workloads() {
		if w.name == *name {
			res, err := runOne(ctx, cfg, w, stdout, stderr)
			if err != nil {
				return false, err
			}
			if *record != "" {
				if err := appendRecord(*record, cfg, res); err != nil {
					return false, err
				}
			}
			return res.Correct && res.Failed == 0, nil
		}
	}
	return false, fmt.Errorf("unknown workload %q", *name)
}

// runAll re-executes this binary once per workload, so each gets a fresh
// process (its own heap, GC state and peak RSS).
func runAll(ctx context.Context, args []string, stdout, stderr io.Writer) (bool, error) {
	ok := true
	for _, w := range workloads() {
		cmd := exec.CommandContext(ctx, os.Args[0], append(append([]string(nil), args...), "--workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		fmt.Fprintf(stdout, "== %s\n", w.name)
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				return false, err
			}
			ok = false
		}
	}
	return ok, nil
}

// runOne runs a workload untraced, and with cfg.trace traced as well,
// prints its metrics and returns its result.
func runOne(ctx context.Context, cfg config, w workload, stdout, stderr io.Writer) (result, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return result{}, err
	}
	m, err := w.run(ctx, cfg, nil)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	res := result{Attempted: m.attempted, Failed: m.failed, Metrics: map[string]value{}}
	problems := m.problems
	if want, ok := cfg.pins[pin{cfg.workload, cfg.seed, cfg.seconds}]; ok && want != m.digest {
		problems = append(problems, fmt.Sprintf("output digest %s, pinned %s", m.digest, want))
	}
	fmt.Fprintf(stdout, "%s seed=%d seconds=%g digest=%s\n", w.name, cfg.seed, cfg.seconds, m.digest)

	if !cfg.trace {
		n := len(m.latency)
		q := tailQuantile(n)
		vals := map[string]float64{
			"setup_s":        median(durationsSec(m.setup)),
			"cells_per_s":    m.cellsPerSec(),
			"latency_p50_ms": percentile(m.latency, 0.5),
			"latency_p99_ms": percentile(m.latency, q),
			"max_rss_mb":     maxRSSMB(),
		}
		fmt.Fprintf(stdout, "latency: %d samples; latency_p99_ms is their p%d\n", n, int(math.Round(q*100)))
		setMetrics(&res, endToEnd, vals, stdout)
	} else {
		tr := newTracer()
		mt, err := w.run(ctx, cfg, tr)
		if err != nil {
			return result{}, fmt.Errorf("%s traced: %w", w.name, err)
		}
		res.Attempted += mt.attempted
		res.Failed += mt.failed
		problems = append(problems, mt.problems...)
		if mt.digest != m.digest {
			problems = append(problems, "traced run produced different outputs")
		}
		mt.layers["trace.overhead_frac"] = 1 - ratio(mt.cellsPerSec(), m.cellsPerSec())
		setMetrics(&res, perLayer, mt.layers, stdout)
		if err := tr.writeSpans(filepath.Join(cfg.dir, "spans-"+w.name+".ndjson"), stderr); err != nil {
			return result{}, err
		}
	}
	for _, p := range problems {
		fmt.Fprintln(stderr, "check failed:", p)
	}
	res.Correct = len(problems) == 0
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res, nil
}

// setMetrics copies defs from vals into the result and prints each. A
// non-finite value (a failed request in the tail) is reported as -1.
func setMetrics(res *result, defs []metricDef, vals map[string]float64, stdout io.Writer) {
	for _, d := range defs {
		v := vals[d.name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = -1
		}
		res.Metrics[d.name] = value{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "  %-26s %16s %s\n", d.name, strconv.FormatFloat(v, 'g', 8, 64), d.unit)
	}
}

func durationsSec(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// record is one line of a --record file.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Result   result  `json:"result"`
}

func appendRecord(path string, cfg config, res result) (err error) {
	line, err := json.Marshal(record{cfg.workload, cfg.seed, cfg.seconds, cfg.trace, res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	_, err = f.Write(append(line, '\n'))
	return err
}
