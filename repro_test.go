package repro

import (
	"testing"
	"time"

	"repro/internal/trace"
)

func TestRunAbstractBatch(t *testing.T) {
	res := runBatch(t, Abstract(), "BEB", 50, WithSeed(1))
	if res.Model != "abstract" || res.Algorithm != "BEB" || res.N != 50 {
		t.Fatalf("metadata: %+v", res)
	}
	if res.CWSlots < 50 {
		t.Fatalf("CW slots %d below n", res.CWSlots)
	}
	if res.TotalTime != 0 {
		t.Fatal("abstract model should not report wall time")
	}
}

func TestRunWiFiBatch(t *testing.T) {
	res := runBatch(t, WiFi(), "STB", 30, WithSeed(2))
	if res.TotalTime <= 0 || res.HalfTime <= 0 || res.HalfTime > res.TotalTime {
		t.Fatalf("times: %+v", res)
	}
	if res.Decomposition == nil || res.Decomposition.Observed != res.TotalTime {
		t.Fatalf("decomposition missing or inconsistent: %+v", res.Decomposition)
	}
}

func TestUnknownAlgorithmRejected(t *testing.T) {
	var eng Engine
	for _, m := range []Model{Abstract(), WiFi()} {
		if _, err := eng.Run(t.Context(), Scenario{Model: m, Algorithm: Algorithm{spec: "WAT"}, N: 10}); err == nil {
			t.Fatalf("%s accepted unknown algorithm", m.Name())
		}
	}
}

func TestBadNRejected(t *testing.T) {
	var eng Engine
	for name, s := range map[string]Scenario{
		"n=0":           {Model: Abstract(), Algorithm: MustAlgorithm("BEB"), N: 0},
		"n=-1":          {Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: -1},
		"best-of-k n=0": {Model: WiFi(), N: 0, Workload: BestOfKWorkload{K: 3}},
	} {
		if _, err := eng.Run(t.Context(), s); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestDeterminismAcrossCalls(t *testing.T) {
	a := runBatch(t, WiFi(), "LLB", 20, WithSeed(7))
	b := runBatch(t, WiFi(), "LLB", 20, WithSeed(7))
	if a.TotalTime != b.TotalTime || a.CWSlots != b.CWSlots {
		t.Fatal("same options diverged")
	}
	c := runBatch(t, WiFi(), "LLB", 20, WithSeed(8))
	if a.TotalTime == c.TotalTime && a.CWSlots == c.CWSlots && a.Collisions == c.Collisions {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestPayloadOption(t *testing.T) {
	small := runBatch(t, WiFi(), "BEB", 15, WithSeed(3), WithPayload(64))
	large := runBatch(t, WiFi(), "BEB", 15, WithSeed(3), WithPayload(1024))
	if large.TotalTime <= small.TotalTime {
		t.Fatalf("1024B (%v) not slower than 64B (%v)", large.TotalTime, small.TotalTime)
	}
}

func TestRTSCTSOption(t *testing.T) {
	if res := runBatch(t, WiFi(), "BEB", 10, WithSeed(4), WithRTSCTS()); res.TotalTime <= 0 {
		t.Fatal("RTS/CTS run failed")
	}
}

func TestTraceOption(t *testing.T) {
	rec := &trace.Recorder{}
	runBatch(t, WiFi(), "BEB", 5, WithSeed(5), WithTrace(rec))
	if len(rec.Events) == 0 {
		t.Fatal("trace recorder captured nothing")
	}
}

func TestWithConfigTweak(t *testing.T) {
	slow := runBatch(t, WiFi(), "BEB", 10, WithSeed(6), WithConfig(func(c *MACConfig) {
		c.AckTimeout = 400 * time.Microsecond
	}))
	fast := runBatch(t, WiFi(), "BEB", 10, WithSeed(6))
	if slow.Collisions > 0 && slow.TotalTime <= fast.TotalTime {
		t.Fatalf("longer ACK timeout (%v) not slower than default (%v)", slow.TotalTime, fast.TotalTime)
	}
}

func TestRunBestOfK(t *testing.T) {
	res := mustRun(t, Scenario{Model: WiFi(), N: 40, Workload: BestOfKWorkload{K: 5},
		Options: []Option{WithSeed(9)}}).BestOfK
	if res.MedianEstimate < 40 {
		t.Fatalf("median estimate %d underestimates n=40", res.MedianEstimate)
	}
	if res.EstimationTime <= 0 || res.TotalTime <= res.EstimationTime {
		t.Fatalf("phase times: est=%v total=%v", res.EstimationTime, res.TotalTime)
	}
}

func TestFixedAndPolyAlgorithms(t *testing.T) {
	runBatch(t, Abstract(), "FIXED:64", 20, WithSeed(10))
	runBatch(t, Abstract(), "POLY:2", 20, WithSeed(10))
}

func TestAlgorithmsList(t *testing.T) {
	got := Algorithms()
	want := []string{"BEB", "LB", "LLB", "STB"}
	if len(got) != len(want) {
		t.Fatalf("Algorithms() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Algorithms() = %v", got)
		}
	}
}
