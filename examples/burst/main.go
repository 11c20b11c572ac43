// Burst: the paper's motivating scenario in full. A single burst of n
// stations contends for the channel under each algorithm; the example
// reports every metric the paper plots (CW slots, total time, time to n/2,
// collisions, worst-case ACK timeouts) over several trials, and closes with
// the Section III-B cost decomposition that explains the reversal.
//
// All algorithm × trial cells run in parallel through one Engine.Sweep.
//
//	go run ./examples/burst [-n 150]
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
	trials := flag.Int("trials", 7, "trials per algorithm")
	payload := flag.Int("payload", 64, "payload bytes")
	flag.Parse()

	algos := repro.PaperAlgorithmList()
	scenarios := make([]repro.Scenario, len(algos))
	for i, a := range algos {
		scenarios[i] = repro.Scenario{
			Model:     repro.WiFi(),
			Algorithm: a,
			N:         *n,
			Options:   []repro.Option{repro.WithPayload(*payload)},
		}
	}

	fmt.Printf("Burst of %d stations, %dB payload, median of %d trials\n\n", *n, *payload, *trials)
	fmt.Printf("%-5s %10s %12s %12s %11s %8s\n",
		"algo", "CW slots", "total (µs)", "half (µs)", "collisions", "max TO")

	type agg struct {
		slots, total, half, coll, to []float64
	}
	aggs := make([]agg, len(scenarios))
	var eng repro.Engine
	for cell := range eng.Sweep(context.Background(), scenarios, repro.Seeds(0, *trials)) {
		if cell.Err != nil {
			log.Fatal(cell.Err)
		}
		res := cell.Result.Batch
		a := &aggs[cell.ScenarioIndex]
		a.slots = append(a.slots, float64(res.CWSlots))
		a.total = append(a.total, float64(res.TotalTime)/float64(time.Microsecond))
		a.half = append(a.half, float64(res.HalfTime)/float64(time.Microsecond))
		a.coll = append(a.coll, float64(res.Collisions))
		a.to = append(a.to, float64(res.MaxAckTimeouts))
	}

	baselines := map[string]float64{}
	for i, algo := range algos {
		a := aggs[i]
		fmt.Printf("%-5s %10.0f %12.0f %12.0f %11.0f %8.0f\n", algo,
			med(a.slots), med(a.total), med(a.half), med(a.coll), med(a.to))
		baselines[algo.String()] = med(a.total)
	}

	fmt.Println("\nTotal time vs BEB:")
	for _, algo := range []string{"LLB", "LB", "STB"} {
		fmt.Printf("  %-4s %+6.1f%%\n", algo, 100*(baselines[algo]-baselines["BEB"])/baselines["BEB"])
	}

	res, err := eng.Run(context.Background(), scenarios[0].WithOptions(repro.WithSeed(1)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nWhere BEB's time goes (Section III-B, one representative run):\n  %v\n", res.Batch.Decomposition)
}

func med(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
