// Sizeestimation: the paper's Section VI alternative. BEST-OF-k stations
// first estimate the batch size by probing the channel with cheap unacked
// dummies, then run fixed backoff with the (over-)estimate as their window —
// trading a fixed, collision-free estimation phase for the collision storm
// that windowed backoff pays.
//
// The grid — best-of-3, best-of-5, and the BEB baseline — is three
// scenarios differing only in Workload, swept in parallel over the trial
// seeds.
//
//	go run ./examples/sizeestimation [-n 150]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	"repro"
)

func main() {
	n := flag.Int("n", 150, "burst size")
	trials := flag.Int("trials", 7, "trials per configuration")
	flag.Parse()

	scenarios := []repro.Scenario{
		{Model: repro.WiFi(), N: *n, Workload: repro.BestOfKWorkload{K: 3}},
		{Model: repro.WiFi(), N: *n, Workload: repro.BestOfKWorkload{K: 5}},
		{Model: repro.WiFi(), N: *n, Algorithm: repro.MustAlgorithm("BEB")},
	}

	type agg struct {
		ests, colls, totals []float64
		phase               time.Duration
	}
	aggs := make([]agg, len(scenarios))
	var eng repro.Engine
	for cell := range eng.Sweep(context.Background(), scenarios, repro.Seeds(0, *trials)) {
		if cell.Err != nil {
			log.Fatal(cell.Err)
		}
		a := &aggs[cell.ScenarioIndex]
		if bok := cell.Result.BestOfK; bok != nil {
			a.ests = append(a.ests, float64(bok.MedianEstimate))
			a.colls = append(a.colls, float64(bok.Collisions))
			a.totals = append(a.totals, float64(bok.TotalTime)/float64(time.Microsecond))
			a.phase = bok.EstimationTime
		} else {
			res := cell.Result.Batch
			a.colls = append(a.colls, float64(res.Collisions))
			a.totals = append(a.totals, float64(res.TotalTime)/float64(time.Microsecond))
		}
	}

	fmt.Printf("BEST-OF-k vs BEB on a burst of %d stations (median of %d trials)\n\n", *n, *trials)
	fmt.Printf("%-10s %14s %14s %12s %12s\n", "algo", "estimate of n", "est. phase", "collisions", "total (µs)")
	for i, k := range []int{3, 5} {
		a := aggs[i]
		fmt.Printf("best-of-%d %14.0f %14v %12.0f %12.0f\n", k, med(a.ests), a.phase, med(a.colls), med(a.totals))
	}
	beb := aggs[2]
	fmt.Printf("%-10s %14s %14s %12.0f %12.0f\n", "BEB", "-", "-", med(beb.colls), med(beb.totals))

	fmt.Println("\nThe estimates only ever overestimate (w.h.p. Ω(n/log n), and in practice")
	fmt.Println("~2n), so the fixed window is wide enough to avoid most collisions; the")
	fmt.Println("estimation phase costs a fixed ~1ms that the avoided collisions repay.")
}

func med(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
