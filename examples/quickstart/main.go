// Quickstart: one Scenario, two Models, and the paper's headline reversal.
//
// A Scenario bundles what to run — a channel Model, a typed Algorithm, a
// batch size — and the Engine runs grids of them in parallel. Here the same
// single-batch workload runs under the abstract model (a collision costs
// one slot) and the 802.11g DCF model (a collision costs a whole
// transmission plus an ACK timeout): the newer algorithms beat binary
// exponential backoff on contention-window slots, yet BEB wins on total
// time.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro"
)

func main() {
	const (
		n      = 120
		trials = 9
	)

	// The grid: every paper algorithm under both channel models. The
	// scenario is identical except for the Model — that swap is the paper's
	// whole experiment.
	algos := repro.PaperAlgorithmList()
	var scenarios []repro.Scenario
	for _, model := range []repro.Model{repro.Abstract(), repro.WiFi()} {
		for _, a := range algos {
			scenarios = append(scenarios, repro.Scenario{Model: model, Algorithm: a, N: n})
		}
	}

	// Fan scenarios × trial seeds across the worker pool; cells stream back
	// in stable order, so aggregation is a simple indexed append.
	var eng repro.Engine
	slots := make([][]float64, len(scenarios))  // CW slots per cell
	totals := make([][]float64, len(scenarios)) // wifi total time per cell
	for cell := range eng.Sweep(context.Background(), scenarios, repro.Seeds(0, trials)) {
		if cell.Err != nil {
			panic(cell.Err)
		}
		res := cell.Result.Batch
		slots[cell.ScenarioIndex] = append(slots[cell.ScenarioIndex], float64(res.CWSlots))
		totals[cell.ScenarioIndex] = append(totals[cell.ScenarioIndex], float64(res.TotalTime))
	}

	fmt.Printf("Single batch of %d packets — abstract slots vs 802.11g total time\n", n)
	fmt.Printf("(medians over %d trials)\n\n", trials)
	fmt.Printf("%-5s  %19s  %18s  %14s\n", "algo", "CW slots (abstract)", "CW slots (wifi)", "total time")

	for i, a := range algos {
		wifiIdx := len(algos) + i
		fmt.Printf("%-5s  %19.0f  %18.0f  %14v\n",
			a, med(slots[i]), med(slots[wifiIdx]),
			time.Duration(med(totals[wifiIdx])).Round(time.Microsecond))
	}

	fmt.Println("\nLB/LLB/STB need fewer contention-window slots than BEB — exactly as")
	fmt.Println("their analyses promise — yet BEB finishes the batch sooner, because the")
	fmt.Println("abstract model prices a collision at one slot while DCF charges a full")
	fmt.Println("frame plus an ACK timeout for it.")
}

func med(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
