// Command figures regenerates the paper's figures and tables. Every
// experiment runs through the public Scenario grid + Engine.Aggregate
// pipeline (see EXPERIMENTS.md), so regeneration shares the worker pool and
// stats procedure with API users.
//
// Usage:
//
//	figures -list                      # show available experiments
//	figures -fig fig7                  # regenerate one figure
//	figures -fig fig3,fig7,tab3        # regenerate a comma-separated set
//	figures -fig all -out results      # regenerate everything, write CSVs
//	figures -fig all -cache fig-cache  # memoize cells; interrupted runs resume
//	figures -fig fig15 -trials 50 -nmax 100000 -step 4000   # full fidelity
//
// Without fidelity flags each experiment uses its paper-default trial count
// and axis; -quick switches to the reduced configuration used by tests
// (experiments.Quick, seed included), which the flags given alongside it
// override one by one.
// Unknown ids anywhere in the -fig list abort with a non-zero exit before
// anything runs, so a typo cannot silently drop a figure from a batch.
//
// With -cache, every simulated cell is persisted to the result store in
// that directory the moment it completes, keyed by (Scenario.Fingerprint,
// seed). Interrupting a long run (Ctrl-C sends SIGINT, which cancels the
// sweep cleanly) loses at most the in-flight cells; rerunning with the same
// -cache replays the finished ones and simulates only the remainder. A
// fully warm rerun is all hits and regenerates byte-identical output. The
// final "cache:" line reports hits and misses.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/mac"
)

func main() {
	var (
		fig      = flag.String("fig", "", "comma-separated experiment ids (fig3..fig19, tab3, decomp, rts, minpkt, ablations) or 'all'")
		list     = flag.Bool("list", false, "list experiments and the Table I configuration")
		out      = flag.String("out", "", "directory for CSV output (created if missing)")
		plot     = flag.Bool("plot", true, "render ASCII plots alongside tables")
		quick    = flag.Bool("quick", false, "use the reduced test-fidelity configuration")
		trials   = flag.Int("trials", 0, "override trials per point")
		nmax     = flag.Int("nmax", 0, "override the maximum n (or payload for fig14)")
		step     = flag.Int("step", 0, "override the sweep step")
		seed     = flag.Uint64("seed", 0, "random seed")
		workers  = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		cache    = flag.String("cache", "", "result-store directory: memoize cells and resume interrupted runs")
		progress = flag.Bool("progress", false, "print periodic cell-completion progress lines to stderr")
	)
	flag.Parse()

	if *list {
		printList()
		return
	}
	if *fig == "" {
		fmt.Fprintln(os.Stderr, "figures: -fig <id>|all required (see -list)")
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the context; sweeps stop at the next cell
	// boundary, and with -cache every already-finished cell is persisted.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// -quick starts from experiments.Quick() whole — the configuration the
	// tests pin — and a fidelity flag overrides it only when given.
	var cfg experiments.Config
	if *quick {
		cfg = experiments.Quick()
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "trials":
			cfg.Trials = *trials
		case "nmax":
			cfg.NMax = *nmax
		case "step":
			cfg.NStep = *step
		case "seed":
			cfg.Seed = *seed
		}
	})
	eng := &repro.Engine{Workers: *workers}
	cfg.Engine = eng
	if *progress {
		eng.Observer = newProgress(os.Stderr, 2*time.Second)
	}

	var store *repro.Store
	if *cache != "" {
		st, err := repro.OpenStore(*cache)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		store = st
		eng.Store = st
	}
	// exit reports the cache counters on every path — the "misses=0" line
	// is what tells a rerun it was served entirely from the store.
	exit := func(code int) {
		if store != nil {
			s := store.Stats()
			fmt.Printf("figures: cache: hits=%d misses=%d records=%d stale=%d (%s)\n",
				s.Hits, s.Misses, s.Records, s.Stale, *cache)
			if s.WriteErr != nil {
				fmt.Fprintf(os.Stderr, "figures: cache write error (results served, resume impaired): %v\n", s.WriteErr)
			}
			if err := store.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "figures: cache close (results already reported, resume impaired): %v\n", err)
			}
		}
		os.Exit(code)
	}
	interrupted := func(err error) {
		fmt.Fprintf(os.Stderr, "figures: interrupted (%v)\n", err)
		if store != nil {
			fmt.Fprintf(os.Stderr, "figures: finished cells are cached; rerun with -cache %s to resume\n", *cache)
		}
		exit(1)
	}

	// Resolve the id list up front: any unknown id — even alongside valid
	// ones — aborts before a single experiment runs, rather than silently
	// skipping it at the end of a long batch.
	gens := append(experiments.All(), experiments.Extras()...)
	wantTrace := *fig == "all"
	if *fig != "all" {
		gens = nil
		var unknown []string
		seen := map[string]bool{}
		for _, id := range strings.Split(*fig, ",") {
			id = strings.TrimSpace(id)
			if id == "" || seen[id] {
				continue
			}
			seen[id] = true
			if id == "fig13" {
				wantTrace = true
				continue
			}
			g, ok := experiments.ByID(id)
			if !ok {
				unknown = append(unknown, id)
				continue
			}
			gens = append(gens, g)
		}
		if len(unknown) > 0 {
			fmt.Fprintf(os.Stderr, "figures: unknown experiment(s) %s (see -list)\n", strings.Join(unknown, ", "))
			exit(2)
		}
		if len(gens) == 0 && !wantTrace {
			fmt.Fprintln(os.Stderr, "figures: -fig needs at least one experiment id (see -list)")
			exit(2)
		}
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			exit(1)
		}
	}

	// Figure 13 is a timeline, not a table; include it for 'all' or by id.
	if wantTrace {
		render, rec, err := experiments.RunTrace(ctx, cfg)
		if err != nil {
			interrupted(err)
		}
		fmt.Println(render)
		if *out != "" {
			path := filepath.Join(*out, "fig13.csv")
			if err := writeCSV(path, rec.WriteCSV); err != nil {
				fmt.Fprintf(os.Stderr, "figures: write %s: %v\n", path, err)
				exit(1)
			}
		}
	}

	for _, g := range gens {
		start := time.Now()
		tab, err := experiments.Run(ctx, g, cfg)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				interrupted(err)
			}
			fmt.Fprintf(os.Stderr, "figures: %s: %v\n", g.ID, err)
			exit(1)
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		if err := tab.WriteTable(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			exit(1)
		}
		if *plot {
			if err := tab.WritePlot(os.Stdout, 78, 16); err != nil {
				fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			}
		}
		fmt.Printf("(%s regenerated in %v)\n\n", g.ID, elapsed)
		if *out != "" {
			path := filepath.Join(*out, g.ID+".csv")
			if err := writeCSV(path, tab.WriteCSV); err != nil {
				fmt.Fprintf(os.Stderr, "figures: write %s: %v\n", path, err)
				exit(1)
			}
		}
	}
	exit(0)
}

// writeCSV writes one CSV artifact, surfacing create, write, and close
// errors alike — a dropped close can lose the final flush, leaving a
// truncated file that looks like a complete figure.
func writeCSV(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

func printList() {
	fmt.Println("Experiments (one per paper figure/table):")
	for _, g := range experiments.All() {
		fmt.Printf("  %-8s %s\n", g.ID, g.Title)
	}
	fmt.Printf("  %-8s %s\n", "fig13", "Execution timeline of BEB with 20 stations")
	fmt.Println("\nExtensions and ablations:")
	for _, g := range experiments.Extras() {
		fmt.Printf("  %-16s %s\n", g.ID, g.Title)
	}
	cfg := mac.DefaultConfig()
	fmt.Println("\nTable I configuration (defaults):")
	fmt.Printf("  data rate            54 Mbit/s (OFDM)\n")
	fmt.Printf("  slot duration        %v\n", cfg.SlotTime)
	fmt.Printf("  SIFS                 %v\n", cfg.SIFS)
	fmt.Printf("  DIFS                 %v\n", cfg.DIFS)
	fmt.Printf("  ACK timeout          %v\n", cfg.AckTimeout)
	fmt.Printf("  preamble             20µs\n")
	fmt.Printf("  packet overhead      %d bytes\n", cfg.OverheadBytes)
	fmt.Printf("  CW min/max           %d / %d\n", cfg.CWMin, cfg.CWMax)
	fmt.Printf("  RTS/CTS              off (flag-selectable per experiment)\n")
}
