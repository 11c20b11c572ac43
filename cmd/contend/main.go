// Command contend runs a single contention-resolution experiment and prints
// its metrics: the quickest way to poke at one algorithm on one channel
// model. Trials run in parallel through repro.Engine.Sweep.
//
// Usage:
//
//	contend -algo BEB -n 150 -model wifi -trials 10
//	contend -algo STB -n 1000 -model abstract
//	contend -algo best-of-3 -n 150
//	contend -algo LLB -n 150 -payload 1024 -rts
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/stats"
)

func main() {
	var (
		algo    = flag.String("algo", "BEB", "BEB, LB, LLB, STB, FIXED:<w>, POLY:<p>, or best-of-<k>")
		n       = flag.Int("n", 150, "batch size (number of stations)")
		model   = flag.String("model", "wifi", "channel model: wifi or abstract")
		payload = flag.Int("payload", 64, "payload bytes (wifi)")
		rts     = flag.Bool("rts", false, "enable RTS/CTS (wifi)")
		trials  = flag.Int("trials", 10, "number of trials")
		seed    = flag.Uint64("seed", 0, "base random seed")
	)
	flag.Parse()

	// Ctrl-C / SIGTERM cancel the context: the sweep stops at the next cell
	// boundary instead of running the whole grid out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	s := repro.Scenario{
		N:       *n,
		Options: []repro.Option{repro.WithPayload(*payload)},
	}
	if *rts {
		s.Options = append(s.Options, repro.WithRTSCTS())
	}

	var bokK int
	isBok := false
	if _, err := fmt.Sscanf(strings.ToLower(*algo), "best-of-%d", &bokK); err == nil && bokK >= 1 {
		isBok = true
		s.Model = repro.WiFi()
		s.Workload = repro.BestOfKWorkload{K: bokK}
	} else {
		a, err := repro.ParseAlgorithm(*algo)
		if err != nil {
			fmt.Fprintf(os.Stderr, "contend: %v\n", err)
			os.Exit(1)
		}
		s.Algorithm = a
		switch *model {
		case "wifi":
			s.Model = repro.WiFi()
		case "abstract":
			s.Model = repro.Abstract()
		default:
			fmt.Fprintf(os.Stderr, "contend: unknown model %q\n", *model)
			os.Exit(1)
		}
	}

	// One grid cell per trial, fanned across the worker pool, each on its
	// own seed derived from -seed.
	var eng repro.Engine
	seeds := repro.Seeds(*seed, *trials)

	if isBok {
		runBestOfK(ctx, &eng, s, seeds, bokK, *n, *payload)
		return
	}

	type metrics struct {
		totalUs, cwSlots, collisions, maxTO []float64
		batches                             []*repro.BatchResult
	}
	var m metrics
	for cell := range eng.Sweep(ctx, []repro.Scenario{s}, seeds) {
		if cell.Err != nil {
			fmt.Fprintf(os.Stderr, "contend: %v\n", cell.Err)
			os.Exit(1)
		}
		res := cell.Result.Batch
		m.totalUs = append(m.totalUs, float64(res.TotalTime)/float64(time.Microsecond))
		m.cwSlots = append(m.cwSlots, float64(res.CWSlots))
		m.collisions = append(m.collisions, float64(res.Collisions))
		m.maxTO = append(m.maxTO, float64(res.MaxAckTimeouts))
		m.batches = append(m.batches, res)
	}

	fmt.Printf("%s on %s, n=%d, payload=%dB, %d trials\n", *algo, s.Model.Name(), *n, *payload, *trials)
	printStat("CW slots", m.cwSlots)
	printStat("disjoint collisions", m.collisions)
	if s.Model.Name() == "wifi" {
		printStat("total time (µs)", m.totalUs)
		printStat("max ACK timeouts", m.maxTO)
		// Decomposition from a representative run (the median-total trial).
		fmt.Printf("decomposition (median trial): %v\n", m.batches[medianIndex(m.totalUs)].Decomposition)
	}
}

func runBestOfK(ctx context.Context, eng *repro.Engine, s repro.Scenario, seeds []uint64, k, n, payload int) {
	var totals, ests []float64
	for cell := range eng.Sweep(ctx, []repro.Scenario{s}, seeds) {
		if cell.Err != nil {
			fmt.Fprintf(os.Stderr, "contend: %v\n", cell.Err)
			os.Exit(1)
		}
		res := cell.Result.BestOfK
		totals = append(totals, float64(res.TotalTime)/float64(time.Microsecond))
		ests = append(ests, float64(res.MedianEstimate))
	}
	fmt.Printf("best-of-%d on wifi, n=%d, payload=%dB, %d trials\n", k, n, payload, len(seeds))
	printStat("total time (µs)", totals)
	printStat("estimate of n", ests)
}

func printStat(name string, xs []float64) {
	s := stats.Summarize(xs)
	fmt.Printf("  %-22s median %10.1f   [95%% CI %.1f, %.1f]   mean %.1f\n",
		name, s.Median, s.MedianLo, s.MedianHi, s.Mean)
}

func medianIndex(xs []float64) int {
	type kv struct {
		v float64
		i int
	}
	s := make([]kv, len(xs))
	for i, v := range xs {
		s[i] = kv{v, i}
	}
	sort.Slice(s, func(a, b int) bool { return s[a].v < s[b].v })
	return s[len(s)/2].i
}
