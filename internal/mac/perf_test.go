package mac

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/phy"
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

// TestKernelStatsPinned pins the kernel's deterministic work profile for
// a few wifi cells. KernelStats is a side channel no result golden
// compares, so without this pin a queue or pool change could alter how
// many events a cell schedules, cancels or recycles, or how deep the
// queue gets, and nothing would notice. Columns follow KernelStats field
// order: scheduled, fired, canceled, reused, max queue length, elided
// slots, Tx total, Tx reuses, Tx recycles, Tx quarantined.
func TestKernelStatsPinned(t *testing.T) {
	factories := map[string]backoff.Factory{
		"BEB": backoff.NewBEB, "LB": backoff.NewLB, "LLB": backoff.NewLLB, "STB": backoff.NewSTB,
	}
	cases := []struct {
		algo string
		n    int
		seed uint64
		want KernelStats
	}{
		{"BEB", 30, 1, KernelStats{3109, 2166, 943, 3077, 31, 526, 213, 183, 213, 0}},
		{"BEB", 30, 2, KernelStats{2830, 1882, 948, 2798, 31, 251, 201, 171, 201, 0}},
		{"BEB", 150, 1, KernelStats{74459, 51706, 22753, 74307, 151, 10537, 1425, 1275, 1425, 0}},
		{"BEB", 150, 2, KernelStats{72578, 50143, 22435, 72426, 151, 12285, 1423, 1273, 1423, 0}},
		{"LB", 30, 1, KernelStats{2900, 1888, 1012, 2868, 31, 72, 233, 203, 233, 0}},
		{"LB", 30, 2, KernelStats{2813, 1848, 965, 2781, 31, 71, 232, 202, 232, 0}},
		{"LB", 150, 1, KernelStats{83362, 57590, 25772, 83210, 151, 1982, 2204, 2054, 2204, 0}},
		{"LB", 150, 2, KernelStats{92842, 65953, 26889, 92690, 151, 2434, 2305, 2155, 2305, 0}},
		{"LLB", 30, 1, KernelStats{2689, 1725, 964, 2657, 31, 190, 209, 179, 209, 0}},
		{"LLB", 30, 2, KernelStats{2864, 1933, 931, 2832, 31, 289, 217, 187, 217, 0}},
		{"LLB", 150, 1, KernelStats{87472, 61821, 25651, 87320, 151, 5428, 1779, 1629, 1779, 0}},
		{"LLB", 150, 2, KernelStats{75025, 51204, 23821, 74873, 151, 4122, 1672, 1522, 1672, 0}},
		{"STB", 30, 1, KernelStats{3038, 1987, 1051, 3006, 31, 21, 273, 256, 273, 0}},
		{"STB", 30, 2, KernelStats{2540, 1582, 958, 2508, 31, 30, 232, 214, 232, 0}},
		{"STB", 150, 1, KernelStats{80202, 52654, 27548, 80050, 151, 682, 2835, 2757, 2835, 0}},
		{"STB", 150, 2, KernelStats{78806, 51966, 26840, 78654, 151, 807, 2782, 2699, 2782, 0}},
		{"best-of-3", 30, 1, KernelStats{2421, 1638, 783, 2356, 64, 288, 266, 236, 266, 0}},
		{"best-of-3", 30, 2, KernelStats{2733, 1903, 830, 2668, 64, 112, 306, 276, 306, 0}},
		{"best-of-3", 150, 1, KernelStats{53260, 34226, 19034, 53075, 184, 14576, 1308, 1158, 1308, 0}},
		{"best-of-3", 150, 2, KernelStats{78332, 52883, 25449, 78147, 184, 1966, 1916, 1766, 1916, 0}},
	}
	for _, c := range cases {
		var got KernelStats
		if c.algo == "best-of-3" {
			got = RunBestOfK(DefaultConfig(), 3, c.n, rng.New(c.seed), nil).Kernel
		} else {
			got = RunBatch(DefaultConfig(), c.n, factories[c.algo], rng.New(c.seed), nil).Kernel
		}
		if got != c.want {
			t.Errorf("%s n=%d seed=%d: kernel stats\n got %+v\nwant %+v", c.algo, c.n, c.seed, got, c.want)
		}
	}

	// Off the grid: capture, aborted overlaps, RTS/CTS and saturated
	// continuous traffic put transmissions of different lengths on the
	// air together, so these are the cells where a Tx can outlive the
	// frames it overlapped. A continuous run also stops at its horizon,
	// possibly mid-overlap.
	nearFar := DefaultConfig()
	nearFar.Layout = phy.NearFarLayout
	abort := DefaultConfig()
	abort.Radio.AbortOverlapAfter = 20 * time.Microsecond
	rts := DefaultConfig()
	rts.RTSCTS = true
	sat := DefaultConfig()
	sat.CWMin = 16
	satNearFar := sat
	satNearFar.Layout = phy.NearFarLayout
	saturated := func(cfg Config, n int, seed uint64) KernelStats {
		return RunContinuous(cfg, n, backoff.NewBEB, traffic.NewSaturated(), 20*time.Millisecond, rng.New(seed), nil).Kernel
	}
	offGrid := []struct {
		name string
		run  func() KernelStats
		want KernelStats
	}{
		{"near-far BEB n=12", func() KernelStats { return RunBatch(nearFar, 12, backoff.NewBEB, rng.New(1), nil).Kernel }, KernelStats{404, 292, 112, 390, 13, 46, 64, 52, 64, 0}},
		{"near-far STB n=12", func() KernelStats { return RunBatch(nearFar, 12, backoff.NewSTB, rng.New(2), nil).Kernel }, KernelStats{407, 285, 122, 393, 13, 1, 59, 52, 59, 0}},
		{"abort BEB n=50", func() KernelStats { return RunBatch(abort, 50, backoff.NewBEB, rng.New(1), nil).Kernel }, KernelStats{8570, 6025, 2545, 8518, 51, 1753, 401, 351, 401, 0}},
		{"abort LLB n=50", func() KernelStats { return RunBatch(abort, 50, backoff.NewLLB, rng.New(2), nil).Kernel }, KernelStats{10519, 7805, 2714, 10467, 51, 1072, 474, 424, 474, 0}},
		{"RTS/CTS BEB n=50", func() KernelStats { return RunBatch(rts, 50, backoff.NewBEB, rng.New(1), nil).Kernel }, KernelStats{10901, 5585, 5316, 10849, 51, 2139, 486, 436, 486, 0}},
		{"RTS/CTS near-far BEB n=12", func() KernelStats {
			cfg := rts
			cfg.Layout = phy.NearFarLayout
			return RunBatch(cfg, 12, backoff.NewBEB, rng.New(3), nil).Kernel
		}, KernelStats{605, 337, 268, 591, 13, 90, 88, 76, 88, 0}},
		{"saturated BEB n=10", func() KernelStats { return saturated(sat, 10, 31) }, KernelStats{7991, 6322, 1668, 5590, 2400, 0, 335, 330, 334, 0}},
		{"saturated near-far BEB n=10", func() KernelStats { return saturated(satNearFar, 10, 31) }, KernelStats{8025, 6296, 1727, 5624, 2400, 0, 347, 343, 346, 0}},
	}
	for _, c := range offGrid {
		if got := c.run(); got != c.want {
			t.Errorf("%s: kernel stats\n got %v\nwant %v", c.name, got, c.want)
		}
	}
}

// TestMACHoldsNoStaleTx runs wifi cells with the medium's use-after-recycle
// detector on: at the end of each busy period its Txs are poisoned and
// never reused, so a MAC read of a handle past its callbacks would panic or
// change the result.
func TestMACHoldsNoStaleTx(t *testing.T) {
	nearFar := DefaultConfig()
	nearFar.Layout = phy.NearFarLayout
	abort := DefaultConfig()
	abort.Radio.AbortOverlapAfter = 20 * time.Microsecond
	rts := nearFar
	rts.RTSCTS = true
	for name, c := range map[string]struct {
		cfg Config
		n   int
	}{"grid": {DefaultConfig(), 30}, "near-far": {nearFar, 12}, "abort": {abort, 30}, "RTS/CTS near-far": {rts, 12}} {
		want := RunBatch(c.cfg, c.n, backoff.NewBEB, rng.New(1), nil)
		m := newSim(c.cfg, c.n, backoff.NewBEB, rng.New(1), nil)
		m.allowSlotSkip = !disableSlotSkip
		m.medium.CheckTxReuse = true
		for _, s := range m.sts {
			s.begin()
		}
		m.drain()
		got := m.collect()
		if k := got.Kernel; k.TxQuarantined != k.TxTotal || k.TxReuses != 0 || k.TxRecycles != 0 {
			t.Errorf("%s: %d Txs, %d quarantined, %d reused, %d recycled", name, k.TxTotal, k.TxQuarantined, k.TxReuses, k.TxRecycles)
		}
		got.Kernel, want.Kernel = KernelStats{}, KernelStats{}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: result changed under CheckTxReuse\n got %+v\nwant %+v", name, got, want)
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
