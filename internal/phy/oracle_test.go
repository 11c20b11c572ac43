package phy

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/rng"
)

// rxPowerMw returns the received power at dst for a transmission from src,
// in milliwatts, read from the source's row as the medium did before it
// read the receiver's row.
func (m *Medium) rxPowerMw(src, dst *Node) float64 { return m.rxMw[src.ID][dst.ID] }

// oracleDecodes is the reception verdict as the medium decided it before
// the once-per-frame instant lists: the half-duplex check first, then the
// worst total interference over the frame (oracleMaxInterferenceMw), tested
// once. loss stands in for the medium's lossRand, so the oracle and the
// medium draw from twin streams.
func (m *Medium) oracleDecodes(tx *Tx, n *Node, loss *rng.Source) bool {
	if tx.aborted {
		return false
	}
	sigMw := m.rxPowerMw(tx.Src, n)
	noiseMw := m.noiseMw
	need := tx.Rate.MinSINRRatio()
	if sigMw/noiseMw < need {
		return false
	}
	for _, itx := range tx.interferers {
		if itx.Src == n {
			return false
		}
	}
	worst := m.oracleMaxInterferenceMw(tx, n)
	if sigMw/(noiseMw+worst) < need {
		return false
	}
	if loss != nil && loss.Float64() < m.cfg.FrameLossProb {
		return false
	}
	return true
}

// oracleMaxInterferenceMw returns the maximum total interference power (mW)
// at node n from transmissions overlapping tx, maximized over the duration
// of tx (a sweep over interferer start points), rebuilt per bystander.
func (m *Medium) oracleMaxInterferenceMw(tx *Tx, n *Node) float64 {
	if len(tx.interferers) == 0 {
		return 0
	}
	points := []event.Time{tx.Start}
	for _, itx := range tx.interferers {
		if itx.Start > tx.Start && itx.Start < tx.End {
			points = append(points, itx.Start)
		}
	}
	var worst float64
	for _, p := range points {
		var sum float64
		for _, itx := range tx.interferers {
			if itx.Start <= p && p < itx.End && itx.Src != n {
				sum += m.rxPowerMw(itx.Src, n)
			}
		}
		if sum > worst {
			worst = sum
		}
	}
	return worst
}

// oracleListener checks every FrameEnd verdict the medium delivers against
// the oracle, evaluated at callback time on the same live Tx. The medium
// decides all of a frame's verdicts before its first callback and the
// oracle decides them in callback order, which is the same audible order,
// so both sides draw frame losses in the same sequence.
type oracleListener struct {
	t    *testing.T
	m    *Medium
	node *Node
	loss *rng.Source
	tab  *verdictTally
}

// verdictTally counts delivered verdicts on frames that overlapped
// something, so a test can assert it exercised both outcomes.
type verdictTally struct{ overlapOK, overlapFail, mismatches int }

func (l *oracleListener) ChannelBusy(event.Time) {}
func (l *oracleListener) ChannelIdle(event.Time) {}
func (l *oracleListener) TxDone(*Tx, event.Time) {}
func (l *oracleListener) FrameEnd(tx *Tx, ok bool, now event.Time) {
	if want := l.m.oracleDecodes(tx, l.node, l.loss); ok != want {
		l.tab.mismatches++
		if l.tab.mismatches <= 5 {
			l.t.Errorf("t=%v frame %d->%d (%d interferers, aborted %v): verdict %v, oracle %v",
				now, tx.Src.ID, l.node.ID, len(tx.interferers), tx.aborted, ok, want)
		}
	}
	if len(tx.interferers) > 0 {
		if ok {
			l.tab.overlapOK++
		} else {
			l.tab.overlapFail++
		}
	}
}

// randomLayout places n nodes uniformly in a 60 m square with full-width
// fractional coordinates, so some pairs sit below the carrier-sense
// threshold and received powers spread widely.
func randomLayout(g *rng.Source, n int) []Position {
	ps := make([]Position, n)
	for i := range ps {
		ps[i] = Position{X: 60 * g.Float64(), Y: 60 * g.Float64()}
	}
	return ps
}

// driveRandomOverlaps schedules frames random sources at random rates and
// sizes. Starts arrive in clusters — a quarter of them two to four frames
// at one instant, as in a DCF slot collision — with gaps short enough that
// most frames overlap one or more others. A node already on the air skips
// its turn.
func driveRandomOverlaps(sched *event.Scheduler, m *Medium, g *rng.Source, frames int) {
	var at time.Duration
	for f := 0; f < frames; {
		burst := 1
		if g.Float64() < 0.25 {
			burst = 2 + g.Intn(3)
		}
		for b := 0; b < burst && f < frames; b, f = b+1, f+1 {
			n := m.nodes[g.Intn(len(m.nodes))]
			rate := Rate(g.Intn(len(ofdmRates)))
			bytes := 14 + g.Intn(1500)
			sched.ScheduleArg("test.tx", at, func(event.Time, any) {
				if !n.sending {
					m.Transmit(n, rate, bytes, Payload{Src: n.ID})
				}
			}, nil)
		}
		at += time.Duration(g.Intn(120)) * time.Microsecond
	}
}

// TestDecodesMatchesOracle compares the medium's verdict with the oracle
// for every (frame, bystander) pair over random overlap patterns: the
// paper's grid, the near-far capture layout, and random layouts, each with
// and without overlap aborts and frame loss. Every seventh node has no
// listener, so the verdicts the medium skips must skip a loss draw on both
// sides; after the run both loss streams must be at the same position.
func TestDecodesMatchesOracle(t *testing.T) {
	layouts := []struct {
		name    string
		ps      func(g *rng.Source) []Position
		capture bool // some overlapped frames must decode
	}{
		{"grid150", func(*rng.Source) []Position { return StationGrid(150) }, false},
		{"nearfar12", func(*rng.Source) []Position { return NearFarLayout(12) }, true},
		{"random40", func(g *rng.Source) []Position { return randomLayout(g, 40) }, true},
	}
	for _, lay := range layouts {
		for _, abort := range []time.Duration{0, 20 * time.Microsecond} {
			for _, loss := range []float64{0, 0.3} {
				for seed := uint64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("%s/abort=%v/loss=%v/seed=%d", lay.name, abort, loss, seed)
					t.Run(name, func(t *testing.T) {
						g := rng.New(seed)
						cfg := DefaultConfig()
						cfg.AbortOverlapAfter = abort
						cfg.FrameLossProb = loss
						cfg.LossSeed = 99 + seed
						sched := &event.Scheduler{}
						m := NewMedium(sched, cfg)
						var twin *rng.Source
						if loss > 0 {
							twin = rng.New(cfg.LossSeed)
						}
						tab := &verdictTally{}
						ps := append([]Position{APPosition()}, lay.ps(g)...)
						for i, p := range ps {
							n := m.AddNode(p, nil)
							if i%7 != 6 {
								m.SetListener(n, &oracleListener{t: t, m: m, node: n, loss: twin, tab: tab})
							}
						}
						driveRandomOverlaps(sched, m, g, 400)
						sched.Run(0)

						if tab.mismatches > 0 {
							t.Fatalf("%d verdicts differ from the oracle", tab.mismatches)
						}
						if tab.overlapFail == 0 {
							t.Fatal("no overlapped frame failed: the pattern exercised nothing")
						}
						// An overlap abort fails nearly every overlapped frame,
						// so capture is asserted only without one.
						if lay.capture && abort == 0 && tab.overlapOK == 0 {
							t.Fatal("no overlapped frame decoded: the layout exercised no capture")
						}
						if twin != nil && m.lossRand.Uint64() != twin.Uint64() {
							t.Fatal("medium and oracle made different numbers of frame-loss draws")
						}
					})
				}
			}
		}
	}
}
