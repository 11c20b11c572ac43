package phy

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/event"
	"repro/internal/rng"
)

// schedule arms fn on sched with no payload.
func schedule(sched *event.Scheduler, delay time.Duration, fn func(event.Time)) {
	sched.ScheduleArg("", delay, func(now event.Time, _ any) { fn(now) }, nil)
}

func TestDBmRoundTrip(t *testing.T) {
	for _, p := range []DBm{-94, -62, 0, 16.0206, 30} {
		mw := p.MilliWatt()
		back := DBm(10 * math.Log10(mw))
		if math.Abs(float64(back-p)) > 1e-9 {
			t.Errorf("round trip %v -> %v", p, back)
		}
	}
}

func TestDBmZeroPower(t *testing.T) {
	if mw := DBm(math.Inf(-1)).MilliWatt(); mw != 0 {
		t.Fatalf("-Inf dBm = %v mW, want 0", mw)
	}
}

func TestDBRatio(t *testing.T) {
	if got := DB(10).Ratio(); math.Abs(got-10) > 1e-12 {
		t.Errorf("10 dB ratio = %v", got)
	}
	if got := DB(3).Ratio(); math.Abs(got-1.9952623) > 1e-6 {
		t.Errorf("3 dB ratio = %v", got)
	}
}

func TestDistance(t *testing.T) {
	d := Position{0, 0}.DistanceTo(Position{3, 4})
	if d != 5 {
		t.Fatalf("distance = %v", d)
	}
}

func TestFrameDuration54(t *testing.T) {
	// 128 B PSDU at 54 Mbps: 16+1024+6 = 1046 bits, ceil(1046/216) = 5
	// symbols -> 20 us + 20 us preamble = 40 us total.
	if got := FrameDuration(Rate54Mbps, 128); got != 40*time.Microsecond {
		t.Fatalf("FrameDuration(54, 128B) = %v", got)
	}
	if got := PayloadDuration(Rate54Mbps, 128); got != 20*time.Microsecond {
		t.Fatalf("PayloadDuration(54, 128B) = %v", got)
	}
}

func TestFrameDurationAck(t *testing.T) {
	// 14 B ACK at 24 Mbps: 16+112+6 = 134 bits, ceil(134/96) = 2 symbols.
	if got := FrameDuration(Rate24Mbps, 14); got != 28*time.Microsecond {
		t.Fatalf("ack duration = %v", got)
	}
}

func TestFrameDurationMonotonicInBytes(t *testing.T) {
	err := quick.Check(func(a, b uint16) bool {
		x, y := int(a%4096), int(b%4096)
		if x > y {
			x, y = y, x
		}
		return FrameDuration(Rate54Mbps, x) <= FrameDuration(Rate54Mbps, y)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestFrameDurationFasterRateShorter(t *testing.T) {
	for bytes := 64; bytes <= 2048; bytes *= 2 {
		if FrameDuration(Rate54Mbps, bytes) > FrameDuration(Rate6Mbps, bytes) {
			t.Fatalf("54 Mbps slower than 6 Mbps at %d bytes", bytes)
		}
	}
}

func TestLogDistanceLoss(t *testing.T) {
	m := NewLogDistance()
	if got := m.Loss(1); got != 46.6777 {
		t.Fatalf("loss at 1 m = %v", got)
	}
	// 10 m: 46.6777 + 30 dB.
	if got := m.Loss(10); math.Abs(float64(got)-76.6777) > 1e-9 {
		t.Fatalf("loss at 10 m = %v", got)
	}
	// Below reference distance clamps.
	if got := m.Loss(0.1); got != 46.6777 {
		t.Fatalf("loss at 0.1 m = %v", got)
	}
}

func TestLogDistanceMonotone(t *testing.T) {
	m := NewLogDistance()
	err := quick.Check(func(a, b uint16) bool {
		x, y := 1+float64(a%1000)/10, 1+float64(b%1000)/10
		if x > y {
			x, y = y, x
		}
		return m.Loss(x) <= m.Loss(y)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestGridLayout(t *testing.T) {
	ps := StationGrid(45)
	if ps[0] != (Position{0, 0}) {
		t.Fatalf("first station at %v", ps[0])
	}
	if ps[39] != (Position{39, 0}) {
		t.Fatalf("station 39 at %v", ps[39])
	}
	if ps[40] != (Position{0, 1}) {
		t.Fatalf("station 40 at %v (row wrap)", ps[40])
	}
	ap := APPosition()
	if ap != (Position{20, 20}) {
		t.Fatalf("AP at %v", ap)
	}
}

// TestGridNoCapture verifies the geometric fact the whole reproduction rests
// on: inside the paper's grid, the worst-case receive-power spread between
// any two of the first 150 stations (as heard by the AP) is far below the
// 54 Mbps SINR threshold, so no overlapping transmission can capture.
func TestGridNoCapture(t *testing.T) {
	cfg := DefaultConfig()
	ap := APPosition()
	ps := StationGrid(150)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range ps {
		rx := float64(cfg.TxPower) - float64(cfg.PathLoss.Loss(p.DistanceTo(ap)))
		lo = math.Min(lo, rx)
		hi = math.Max(hi, rx)
	}
	spread := hi - lo
	minSINR := float64(ofdmRates[Rate54Mbps].minSINR)
	if spread >= minSINR {
		t.Fatalf("power spread %.1f dB >= capture threshold %v dB; paper's no-capture regime violated", spread, minSINR)
	}
	// And every clean frame decodes: SNR at the farthest station must clear
	// the threshold.
	snr := lo - float64(cfg.NoiseFloor)
	if snr < minSINR {
		t.Fatalf("clean-channel SNR %.1f dB below 54 Mbps threshold", snr)
	}
}

// testListener records channel callbacks.
type testListener struct {
	busy, idle int
	frames     []bool
}

func (l *testListener) ChannelBusy(event.Time) { l.busy++ }
func (l *testListener) ChannelIdle(event.Time) { l.idle++ }
func (l *testListener) FrameEnd(tx *Tx, ok bool, _ event.Time) {
	l.frames = append(l.frames, ok)
}
func (l *testListener) TxDone(*Tx, event.Time) {}

func newTestMedium() (*event.Scheduler, *Medium) {
	sched := &event.Scheduler{}
	return sched, NewMedium(sched, DefaultConfig())
}

func TestSingleFrameDecodes(t *testing.T) {
	sched, m := newTestMedium()
	apL := &testListener{}
	ap := m.AddNode(APPosition(), apL)
	stL := &testListener{}
	st := m.AddNode(Position{0, 0}, stL)
	_ = ap

	m.Transmit(st, Rate54Mbps, 128, Payload{Src: st.ID})
	sched.Run(0)

	if len(apL.frames) != 1 || !apL.frames[0] {
		t.Fatalf("AP frames = %v, want one success", apL.frames)
	}
	if apL.busy != 1 || apL.idle != 1 {
		t.Fatalf("AP busy/idle = %d/%d, want 1/1", apL.busy, apL.idle)
	}
}

func TestOverlappingFramesCollide(t *testing.T) {
	sched, m := newTestMedium()
	apL := &testListener{}
	m.AddNode(APPosition(), apL)
	var sts []*Node
	for _, p := range StationGrid(2) {
		sts = append(sts, m.AddNode(p, &testListener{}))
	}

	m.Transmit(sts[0], Rate54Mbps, 128, Payload{Src: 0})
	m.Transmit(sts[1], Rate54Mbps, 128, Payload{Src: 1})
	sched.Run(0)

	if len(apL.frames) != 2 {
		t.Fatalf("AP saw %d frames", len(apL.frames))
	}
	for i, ok := range apL.frames {
		if ok {
			t.Errorf("frame %d decoded despite collision", i)
		}
	}
}

func TestPartialOverlapCollides(t *testing.T) {
	sched, m := newTestMedium()
	apL := &testListener{}
	m.AddNode(APPosition(), apL)
	sts := []*Node{}
	for _, p := range StationGrid(2) {
		sts = append(sts, m.AddNode(p, &testListener{}))
	}
	m.Transmit(sts[0], Rate54Mbps, 1088, Payload{Src: 0})
	schedule(sched, 10*time.Microsecond, func(event.Time) {
		m.Transmit(sts[1], Rate54Mbps, 128, Payload{Src: 1})
	})
	sched.Run(0)
	for i, ok := range apL.frames {
		if ok {
			t.Errorf("frame %d decoded despite partial overlap", i)
		}
	}
}

func TestSequentialFramesBothDecode(t *testing.T) {
	sched, m := newTestMedium()
	apL := &testListener{}
	m.AddNode(APPosition(), apL)
	sts := []*Node{}
	for _, p := range StationGrid(2) {
		sts = append(sts, m.AddNode(p, &testListener{}))
	}
	m.Transmit(sts[0], Rate54Mbps, 128, Payload{Src: 0})
	schedule(sched, FrameDuration(Rate54Mbps, 128), func(event.Time) {
		m.Transmit(sts[1], Rate54Mbps, 128, Payload{Src: 1})
	})
	sched.Run(0)
	if len(apL.frames) != 2 || !apL.frames[0] || !apL.frames[1] {
		t.Fatalf("sequential frames = %v, want both ok", apL.frames)
	}
}

func TestHalfDuplexCannotReceiveWhileSending(t *testing.T) {
	sched, m := newTestMedium()
	l0, l1 := &testListener{}, &testListener{}
	n0 := m.AddNode(Position{0, 0}, l0)
	n1 := m.AddNode(Position{1, 0}, l1)

	m.Transmit(n0, Rate54Mbps, 128, Payload{Src: 0})
	m.Transmit(n1, Rate54Mbps, 128, Payload{Src: 1})
	sched.Run(0)

	// Each node heard exactly the other's frame, and must NOT decode it
	// (it was transmitting at the time).
	if len(l0.frames) != 1 || l0.frames[0] {
		t.Fatalf("n0 frames = %v", l0.frames)
	}
	if len(l1.frames) != 1 || l1.frames[0] {
		t.Fatalf("n1 frames = %v", l1.frames)
	}
}

func TestCarrierSenseTracksOverlap(t *testing.T) {
	sched, m := newTestMedium()
	obs := &testListener{}
	m.AddNode(APPosition(), obs)
	sts := []*Node{}
	for _, p := range StationGrid(2) {
		sts = append(sts, m.AddNode(p, &testListener{}))
	}
	// Two overlapping frames: the observer should see one busy period.
	m.Transmit(sts[0], Rate54Mbps, 1088, Payload{Src: 0})
	schedule(sched, 5*time.Microsecond, func(event.Time) {
		m.Transmit(sts[1], Rate54Mbps, 128, Payload{Src: 1})
	})
	sched.Run(0)
	if obs.busy != 1 || obs.idle != 1 {
		t.Fatalf("busy/idle = %d/%d, want 1/1 for overlapping frames", obs.busy, obs.idle)
	}
}

func TestNodeBusyFlag(t *testing.T) {
	sched, m := newTestMedium()
	obsL := &testListener{}
	obs := m.AddNode(APPosition(), obsL)
	st := m.AddNode(Position{0, 0}, &testListener{})

	m.Transmit(st, Rate54Mbps, 128, Payload{Src: st.ID})
	if !obs.Busy() {
		t.Fatal("observer not busy during transmission")
	}
	sched.Run(0)
	if obs.Busy() {
		t.Fatal("observer still busy after transmission ended")
	}
}

func TestDoubleTransmitPanics(t *testing.T) {
	_, m := newTestMedium()
	st := m.AddNode(Position{0, 0}, &testListener{})
	m.AddNode(APPosition(), &testListener{})
	m.Transmit(st, Rate54Mbps, 128, Payload{Src: st.ID})
	defer func() {
		if recover() == nil {
			t.Fatal("concurrent transmit from one node did not panic")
		}
	}()
	m.Transmit(st, Rate54Mbps, 128, Payload{Src: st.ID})
}

func TestCaptureUnderNearFarLayout(t *testing.T) {
	// Sanity check of the ablation geometry: with one station very close to
	// the AP and one far away, the close station's frame survives overlap.
	// Verdicts are keyed by the typed payload's Src field.
	sched := &event.Scheduler{}
	m := NewMedium(sched, DefaultConfig())
	res := &captureListener{ok: map[int]bool{}}
	m.AddNode(APPosition(), res)
	ps := NearFarLayout(12)
	near := m.AddNode(ps[0], &testListener{}) // 1 m from AP
	far := m.AddNode(ps[11], &testListener{}) // ~40 m away

	m.Transmit(near, Rate54Mbps, 128, Payload{Src: near.ID})
	m.Transmit(far, Rate54Mbps, 128, Payload{Src: far.ID})
	sched.Run(0)

	if !res.ok[near.ID] {
		t.Fatal("near station should capture over a distant interferer")
	}
	if res.ok[far.ID] {
		t.Fatal("far station should be drowned by the near interferer")
	}
}

type captureListener struct{ ok map[int]bool }

func (l *captureListener) ChannelBusy(event.Time) {}
func (l *captureListener) ChannelIdle(event.Time) {}
func (l *captureListener) FrameEnd(tx *Tx, ok bool, _ event.Time) {
	l.ok[tx.Payload.Src] = ok
}
func (l *captureListener) TxDone(*Tx, event.Time) {}

func TestMediumStats(t *testing.T) {
	sched, m := newTestMedium()
	m.AddNode(APPosition(), &testListener{})
	sts := []*Node{}
	for _, p := range StationGrid(3) {
		sts = append(sts, m.AddNode(p, &testListener{}))
	}
	for _, s := range sts {
		m.Transmit(s, Rate54Mbps, 128, Payload{Src: s.ID})
	}
	sched.Run(0)
	if m.TotalTx != 3 {
		t.Fatalf("TotalTx = %d", m.TotalTx)
	}
	if m.ActiveCount() != 0 {
		t.Fatalf("ActiveCount = %d after drain", m.ActiveCount())
	}
}

// TestRxPowerSymmetric pins the fact buildGains and decodes rest on: for
// every ordered pair of nodes, the gain the one-way expression gives for
// i -> j is bit for bit the gain for j -> i, and equals the matrix entry
// buildGains mirrors from below the diagonal. It covers the paper's grid,
// the near-far layout and random layouts with full-width fractional
// coordinates, whose deltas round differently in each direction if any
// step of the expression is not symmetric.
func TestRxPowerSymmetric(t *testing.T) {
	g := rng.New(7)
	layouts := map[string][]Position{
		"grid150":   StationGrid(150),
		"nearfar12": NearFarLayout(12),
	}
	for i := 0; i < 4; i++ {
		layouts[fmt.Sprintf("random%d", i)] = randomLayout(g, 60)
	}
	for name, ps := range layouts {
		cfg := DefaultConfig()
		m := NewMedium(&event.Scheduler{}, cfg)
		for _, p := range append([]Position{APPosition()}, ps...) {
			m.AddNode(p, &testListener{})
		}
		m.buildGains()
		txMw := cfg.TxPower.MilliWatt()
		oneWay := func(a, b *Node) float64 {
			return txMw * DB(-cfg.PathLoss.Loss(a.Pos.DistanceTo(b.Pos))).Ratio()
		}
		for _, a := range m.nodes {
			if m.rxMw[a.ID][a.ID] != 0 {
				t.Fatalf("%s: diagonal gain at node %d = %v, want 0", name, a.ID, m.rxMw[a.ID][a.ID])
			}
			for _, b := range m.nodes[:a.ID] {
				ab, ba := oneWay(a, b), oneWay(b, a)
				if math.Float64bits(ab) != math.Float64bits(ba) {
					t.Fatalf("%s: asymmetric link %d-%d: %v vs %v", name, a.ID, b.ID, ab, ba)
				}
				if math.Float64bits(m.rxMw[a.ID][b.ID]) != math.Float64bits(ab) ||
					math.Float64bits(m.rxMw[b.ID][a.ID]) != math.Float64bits(ab) {
					t.Fatalf("%s: matrix link %d-%d = %v / %v, one-way %v",
						name, a.ID, b.ID, m.rxMw[a.ID][b.ID], m.rxMw[b.ID][a.ID], ab)
				}
			}
		}
	}
}
