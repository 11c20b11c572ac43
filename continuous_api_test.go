package repro

import (
	"testing"
	"time"
)

// continuous is the continuous-traffic Scenario of algo with n stations.
func continuous(n int, algo string, arrivals ArrivalSpec, horizon time.Duration, opts ...Option) Scenario {
	return Scenario{Model: WiFi(), Algorithm: Algorithm{spec: algo}, N: n,
		Workload: ContinuousWorkload{Arrivals: arrivals, Horizon: horizon}, Options: opts}
}

func TestRunContinuousTrafficPoisson(t *testing.T) {
	res := mustRun(t, continuous(8, "BEB", Poisson(200), 100*time.Millisecond, WithSeed(1))).Traffic
	if res.Offered == 0 || res.Delivered == 0 {
		t.Fatalf("no traffic flowed: %+v", res)
	}
	if res.Backlog != res.Offered-res.Delivered {
		t.Fatalf("backlog inconsistent: %+v", res)
	}
	if res.ThroughputMbps <= 0 {
		t.Fatal("zero throughput")
	}
}

func TestRunContinuousTrafficSaturatedWithCWMin16(t *testing.T) {
	res := mustRun(t, continuous(8, "BEB", Saturated(), 100*time.Millisecond,
		WithSeed(2), WithConfig(func(c *MACConfig) { c.CWMin = 16 }))).Traffic
	if res.JainFairness < 0.5 {
		t.Fatalf("fairness %v too low with CWmin=16", res.JainFairness)
	}
	if res.Backlog == 0 {
		t.Fatal("saturation should leave a backlog")
	}
}

func TestRunContinuousTrafficBursty(t *testing.T) {
	res := mustRun(t, continuous(10, "LLB",
		BurstyPareto(1.5, 5*time.Millisecond, 6), 150*time.Millisecond, WithSeed(3))).Traffic
	if res.Delivered == 0 {
		t.Fatal("bursty run delivered nothing")
	}
	if !(res.LatencyP50 <= res.LatencyP95 && res.LatencyP95 <= res.LatencyMax) {
		t.Fatalf("latency quantiles out of order: %+v", res)
	}
}

func TestRunContinuousTrafficValidation(t *testing.T) {
	var eng Engine
	for name, s := range map[string]Scenario{
		"n=0":                continuous(0, "BEB", Saturated(), time.Millisecond),
		"zero horizon":       continuous(5, "BEB", Saturated(), 0),
		"unknown algorithm":  continuous(5, "WAT", Saturated(), time.Millisecond),
		"negative rate":      continuous(5, "BEB", Poisson(-1), time.Millisecond),
		"zero interval":      continuous(5, "BEB", Periodic(0), time.Millisecond),
		"bad pareto":         continuous(5, "BEB", BurstyPareto(0.5, 0, 0), time.Millisecond),
		"empty arrival spec": continuous(5, "BEB", ArrivalSpec{}, time.Millisecond),
	} {
		if _, err := eng.Run(t.Context(), s); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestPredictSaturatedThroughput(t *testing.T) {
	th, err := PredictSaturatedThroughput(10, 16, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if th <= 0 || th > 54 {
		t.Fatalf("Bianchi throughput %v Mbps out of range", th)
	}
	small, _ := PredictSaturatedThroughput(10, 16, 64)
	if small >= th {
		t.Fatalf("64B throughput %v not below 1024B %v", small, th)
	}
}

func TestRunTreeBatchAPI(t *testing.T) {
	tree := Scenario{Model: Abstract(), N: 100, Workload: TreeWorkload{}, Options: []Option{WithSeed(4)}}
	if res := mustRun(t, tree).Batch; res.Algorithm != "TREE" || res.CWSlots < 100 {
		t.Fatalf("tree result: %+v", res)
	}
	tree.N = 0
	if _, err := new(Engine).Run(t.Context(), tree); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestContinuousTrafficDeterministic(t *testing.T) {
	run := func() TrafficResult {
		return *mustRun(t, continuous(6, "STB", Poisson(300), 80*time.Millisecond, WithSeed(7))).Traffic
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same options diverged: %+v vs %+v", a, b)
	}
}
