// Tradeoff: explore the paper's cost model T_A = C_A·(P+ρ) + W_A·s as the
// packet size grows (Figure 14 territory). For each payload the example runs
// LLB and BEB on the same seeds and prints the measured total-time gap next
// to the gap the cost model predicts from measured collisions and CW slots —
// showing that collision count times packet duration, not CW slots, is what
// separates the algorithms.
//
// Each payload's LLB/BEB × trial grid runs as one parallel Engine.Sweep;
// pairing by SeedIndex keeps the per-seed differences exact.
//
//	go run ./examples/tradeoff [-n 150]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/mac"
)

func main() {
	n := flag.Int("n", 150, "burst size")
	trials := flag.Int("trials", 5, "trials per payload")
	flag.Parse()

	fmt.Printf("LLB vs BEB at n=%d as packets grow (medians over %d trials)\n\n", *n, *trials)
	fmt.Printf("%8s %16s %16s %18s\n", "payload", "measured gap(µs)", "model gap(µs)", "collision gap")

	var eng repro.Engine
	for payload := 100; payload <= 1000; payload += 150 {
		scenarios := make([]repro.Scenario, 2)
		for i, algo := range []repro.Algorithm{repro.MustAlgorithm("LLB"), repro.MustAlgorithm("BEB")} {
			scenarios[i] = repro.Scenario{
				Model:     repro.WiFi(),
				Algorithm: algo,
				N:         *n,
				Options:   []repro.Option{repro.WithPayload(payload)},
			}
		}
		perTrial := make([][]repro.BatchResult, 2)
		for cell := range eng.Sweep(context.Background(), scenarios, repro.Seeds(0, *trials)) {
			if cell.Err != nil {
				log.Fatal(cell.Err)
			}
			perTrial[cell.ScenarioIndex] = append(perTrial[cell.ScenarioIndex], *cell.Result.Batch)
		}

		cfg := mac.DefaultConfig()
		cfg.PayloadBytes = payload
		model := core.ModelFromConfig(cfg)

		var gaps, modelGaps, collGaps []float64
		for tr := 0; tr < *trials; tr++ {
			llb, beb := perTrial[0][tr], perTrial[1][tr]
			gaps = append(gaps, us(llb.TotalTime-beb.TotalTime))
			predicted := model.TotalTime(llb.Collisions, llb.CWSlots) -
				model.TotalTime(beb.Collisions, beb.CWSlots)
			modelGaps = append(modelGaps, us(predicted))
			collGaps = append(collGaps, float64(llb.Collisions-beb.Collisions))
		}
		fmt.Printf("%7dB %16.0f %16.0f %18.0f\n", payload, med(gaps), med(modelGaps), med(collGaps))
	}

	fmt.Println("\nThe model gap tracks the measured gap and both grow with payload: the")
	fmt.Println("extra collisions LLB suffers each cost one more (now longer) frame.")
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func med(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
