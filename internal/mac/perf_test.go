package mac

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/rng"
	"repro/internal/traffic"
)

// TestBatchResultsPinned pins full batch results captured before the event
// kernel rework (pooling, typed handlers, idle-slot fast-forward, latency
// gating). Any drift here means an "optimization" changed simulation
// semantics.
func TestBatchResultsPinned(t *testing.T) {
	cases := []struct {
		algo              string
		n                 int
		seed              uint64
		total, half       time.Duration
		cwSlots, cwAtHalf int
		collisions        int
		maxTimeouts       int
		maxTimeoutWait    time.Duration
		events            uint64
	}{
		{"BEB", 25, 7, 7030000, 3683000, 186, 37, 22, 7, 525000, 1712},
		{"LLB", 40, 11, 8662000, 5462000, 141, 69, 28, 7, 525000, 2939},
		{"STB", 10, 3, 2825000, 1881000, 27, 9, 13, 6, 450000, 305},
	}
	factories := map[string]backoff.Factory{
		"BEB": backoff.NewBEB, "LLB": backoff.NewLLB, "STB": backoff.NewSTB,
	}
	cfg := DefaultConfig()
	for _, c := range cases {
		res := RunBatch(cfg, c.n, factories[c.algo], rng.New(c.seed), nil)
		if res.TotalTime != c.total || res.HalfTime != c.half {
			t.Errorf("%s n=%d: times %v/%v, want %v/%v",
				c.algo, c.n, res.TotalTime, res.HalfTime, c.total, c.half)
		}
		if res.CWSlots != c.cwSlots || res.CWSlotsAtHalf != c.cwAtHalf {
			t.Errorf("%s n=%d: CW slots %d/%d, want %d/%d",
				c.algo, c.n, res.CWSlots, res.CWSlotsAtHalf, c.cwSlots, c.cwAtHalf)
		}
		if res.Collisions != c.collisions {
			t.Errorf("%s n=%d: collisions %d, want %d", c.algo, c.n, res.Collisions, c.collisions)
		}
		if res.MaxAckTimeouts != c.maxTimeouts || res.MaxAckTimeoutWait != c.maxTimeoutWait {
			t.Errorf("%s n=%d: worst timeouts %d/%v, want %d/%v",
				c.algo, c.n, res.MaxAckTimeouts, res.MaxAckTimeoutWait, c.maxTimeouts, c.maxTimeoutWait)
		}
		if got := logicalEvents(res.Kernel); got != c.events {
			t.Errorf("%s n=%d: events %d, want %d (elided slots must be added back)",
				c.algo, c.n, got, c.events)
		}
	}
}

// digest is a short stable hash of v's %+v rendering, for pinning
// per-station stats without spelling out every field of every station.
func digest(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return hex.EncodeToString(sum[:8])
}

// TestBestOfKResultsPinned pins full best-of-k results. The lossy case sets
// an explicit LossSeed, so its frame-loss stream does not depend on how the
// simulator derives a default one.
func TestBestOfKResultsPinned(t *testing.T) {
	lossy := DefaultConfig()
	lossy.Radio.FrameLossProb = 0.05
	lossy.Radio.LossSeed = 99
	cases := []struct {
		cfg         Config
		k, n        int
		seed        uint64
		estimate    int // every station adopts the same window on the grid
		probes      int
		events      uint64
		collisions  int
		total, half time.Duration
		stations    string
	}{
		{DefaultConfig(), 3, 12, 21, 16, 71, 619, 11, 4433000, 2672000, "54197698ca4703bf"},
		{DefaultConfig(), 5, 30, 22, 128, 291, 3448, 4, 8062000, 4425000, "71735634338b091f"},
		{lossy, 3, 16, 23, 64, 97, 978, 5, 4742000, 2705000, "740f321a623975ec"},
	}
	for _, c := range cases {
		var pc probeCounter
		res := RunBestOfK(c.cfg, c.k, c.n, rng.New(c.seed), &pc)
		if len(res.Estimates) != c.n {
			t.Fatalf("k=%d n=%d: %d estimates", c.k, c.n, len(res.Estimates))
		}
		for i, e := range res.Estimates {
			if e != c.estimate {
				t.Errorf("k=%d n=%d: station %d estimate %d, want %d", c.k, c.n, i, e, c.estimate)
			}
		}
		if events := logicalEvents(res.Kernel); pc.probes != c.probes || events != c.events || res.Collisions != c.collisions {
			t.Errorf("k=%d n=%d: probes/events/collisions %d/%d/%d, want %d/%d/%d", c.k, c.n,
				pc.probes, events, res.Collisions, c.probes, c.events, c.collisions)
		}
		if res.TotalTime != c.total || res.HalfTime != c.half {
			t.Errorf("k=%d n=%d: times %v/%v, want %v/%v", c.k, c.n, res.TotalTime, res.HalfTime, c.total, c.half)
		}
		if got := digest(res.Stations); got != c.stations {
			t.Errorf("k=%d n=%d: station stats digest %s, want %s", c.k, c.n, got, c.stations)
		}
	}
}

// TestContinuousResultsPinned pins full continuous-traffic results.
func TestContinuousResultsPinned(t *testing.T) {
	sat := DefaultConfig()
	sat.CWMin = 16
	lossy := sat
	lossy.Radio.FrameLossProb = 0.05
	cases := []struct {
		name               string
		cfg                Config
		n                  int
		f                  backoff.Factory
		proc               traffic.Process
		horizon            time.Duration
		seed               uint64
		offered, delivered int
		collisions         int
		p50, p95, latMax   time.Duration
		jain               float64
		stations           string
	}{
		{"saturated BEB", sat, 10, backoff.NewBEB, traffic.NewSaturated(), 20 * time.Millisecond, 31,
			2400, 99, 56, 9742000, 19151000, 19777000, 0.8427343078245916, "b748655576f6174c"},
		{"poisson LLB", DefaultConfig(), 8, backoff.NewLLB, traffic.NewPoisson(300), 40 * time.Millisecond, 32,
			91, 91, 2, 118000, 317336, 524360, 0.9701265229615745, "1781f03dc1aed73a"},
		{"lossy poisson STB", lossy, 6, backoff.NewSTB, traffic.NewPoisson(500), 30 * time.Millisecond, 33,
			81, 81, 2, 253000, 715329, 832914, 0.9533565823888405, "a3b0f7cfd4bc7c4d"},
	}
	for _, c := range cases {
		res := RunContinuous(c.cfg, c.n, c.f, c.proc, c.horizon, rng.New(c.seed), nil)
		if res.Offered != c.offered || res.Delivered != c.delivered || res.Collisions != c.collisions {
			t.Errorf("%s: offered/delivered/collisions %d/%d/%d, want %d/%d/%d", c.name,
				res.Offered, res.Delivered, res.Collisions, c.offered, c.delivered, c.collisions)
		}
		if res.LatencyP50 != c.p50 || res.LatencyP95 != c.p95 || res.LatencyMax != c.latMax {
			t.Errorf("%s: latency %v/%v/%v, want %v/%v/%v", c.name,
				res.LatencyP50, res.LatencyP95, res.LatencyMax, c.p50, c.p95, c.latMax)
		}
		if res.JainFairness != c.jain {
			t.Errorf("%s: Jain fairness %v, want %v", c.name, res.JainFairness, c.jain)
		}
		if got := digest(res.Stations); got != c.stations {
			t.Errorf("%s: station stats digest %s, want %s", c.name, got, c.stations)
		}
	}
}

// TestBatchDoesNotCollectLatencies: batch runs drop per-packet latencies
// instead of appending one unread slice entry per station.
func TestBatchDoesNotCollectLatencies(t *testing.T) {
	cfg := DefaultConfig()
	m := newSim(cfg, 20, backoff.NewBEB, rng.New(5), nil)
	m.allowSlotSkip = !disableSlotSkip
	for _, s := range m.sts {
		s.begin()
	}
	m.drain()
	if m.latencies != nil {
		t.Fatalf("batch run collected %d latencies; collectLatencies must stay off", len(m.latencies))
	}
}

// TestSlotSkipEquivalence: the idle-slot fast-forward's contract is that
// results are bit-identical with and without it — same times, same counters,
// same per-station stats, same logical event count. (Referenced from the
// trySkipSlots comment in run.go.)
func TestSlotSkipEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	factories := []struct {
		name string
		f    backoff.Factory
	}{
		{"BEB", backoff.NewBEB}, {"LB", backoff.NewLB},
		{"LLB", backoff.NewLLB}, {"STB", backoff.NewSTB},
	}
	for _, fc := range factories {
		for _, n := range []int{1, 2, 5, 30, 80} {
			for seed := uint64(1); seed <= 3; seed++ {
				fast := RunBatch(cfg, n, fc.f, rng.New(seed), nil)

				disableSlotSkip = true
				slow := RunBatch(cfg, n, fc.f, rng.New(seed), nil)
				disableSlotSkip = false

				if a, b := logicalEvents(fast.Kernel), logicalEvents(slow.Kernel); a != b {
					t.Fatalf("%s n=%d seed=%d: logical event count drifted: %d vs %d",
						fc.name, n, seed, a, b)
				}
				// Kernel is the work profile, not the result: the
				// fast-forward exists precisely to change it (fewer events
				// scheduled, slots elided). Compare everything else.
				fast.Kernel, slow.Kernel = KernelStats{}, KernelStats{}
				if !reflect.DeepEqual(fast, slow) {
					t.Fatalf("%s n=%d seed=%d: slot-skip changed the result\nfast: %+v\nslow: %+v",
						fc.name, n, seed, fast, slow)
				}
			}
		}
	}
}

// TestSlotSkipElidesEvents confirms the fast-forward actually engages on a
// contended batch (otherwise TestSlotSkipEquivalence proves nothing).
func TestSlotSkipElidesEvents(t *testing.T) {
	cfg := DefaultConfig()
	m := newSim(cfg, 30, backoff.NewBEB, rng.New(2), nil)
	m.allowSlotSkip = true
	for _, s := range m.sts {
		s.begin()
	}
	m.drain()
	if m.elidedSlots == 0 {
		t.Fatal("fast-forward never engaged on a 30-station batch")
	}
	if got := m.collect().Kernel.IdleSlotsElided; got != m.elidedSlots {
		t.Fatalf("Kernel.IdleSlotsElided %d != elided %d", got, m.elidedSlots)
	}
}

// TestMaxTimeoutStatsTieBreak pins the Figure 11/12 selection rule: the
// worst-off station has the most ACK timeouts, and among stations tying on
// the count, the longest timeout wait is reported. The old strict-greater
// rule silently kept the lowest-index station's wait on ties.
func TestMaxTimeoutStatsTieBreak(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name      string
		stations  []StationStats
		wantCount int
		wantWait  time.Duration
	}{
		{"empty", nil, 0, 0},
		{"single", []StationStats{{AckTimeouts: 3, AckTimeoutWait: 9 * ms}}, 3, 9 * ms},
		{"strict max wins", []StationStats{
			{AckTimeouts: 2, AckTimeoutWait: 50 * ms},
			{AckTimeouts: 5, AckTimeoutWait: 10 * ms},
		}, 5, 10 * ms},
		{"tie breaks to longer wait", []StationStats{
			{AckTimeouts: 4, AckTimeoutWait: 8 * ms},
			{AckTimeouts: 4, AckTimeoutWait: 20 * ms},
		}, 4, 20 * ms},
		{"tie with longer wait first", []StationStats{
			{AckTimeouts: 4, AckTimeoutWait: 20 * ms},
			{AckTimeouts: 4, AckTimeoutWait: 8 * ms},
		}, 4, 20 * ms},
		{"later lower count cannot shrink wait", []StationStats{
			{AckTimeouts: 6, AckTimeoutWait: 30 * ms},
			{AckTimeouts: 2, AckTimeoutWait: 99 * ms},
		}, 6, 30 * ms},
	}
	for _, c := range cases {
		count, wait := maxTimeoutStats(c.stations)
		if count != c.wantCount || wait != c.wantWait {
			t.Errorf("%s: got (%d, %v), want (%d, %v)", c.name, count, wait, c.wantCount, c.wantWait)
		}
	}
}
