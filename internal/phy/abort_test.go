package phy

import (
	"testing"
	"time"

	"repro/internal/event"
)

// txDoneListener counts TxDone callbacks. It deliberately does not keep the
// *Tx handles: they are only valid during the callback (the medium recycles
// them after), and the tests that inspect a transmission past the run Retain
// their own handle at Transmit time.
type txDoneListener struct {
	testListener
	done int
}

func (l *txDoneListener) TxDone(*Tx, event.Time) { l.done++ }

func abortMedium(after time.Duration) (*event.Scheduler, *Medium) {
	sched := &event.Scheduler{}
	cfg := DefaultConfig()
	cfg.AbortOverlapAfter = after
	return sched, NewMedium(sched, cfg)
}

func TestAbortTruncatesOverlappingFrames(t *testing.T) {
	sched, m := abortMedium(20 * time.Microsecond)
	apL := &testListener{}
	m.AddNode(APPosition(), apL)
	l0, l1 := &txDoneListener{}, &txDoneListener{}
	ps := StationGrid(2)
	n0 := m.AddNode(ps[0], l0)
	n1 := m.AddNode(ps[1], l1)

	full := FrameDuration(Rate54Mbps, 1088)
	tx0 := m.Transmit(n0, Rate54Mbps, 1088, Payload{Src: 0})
	tx0.Retain()
	defer tx0.Release()
	tx1 := m.Transmit(n1, Rate54Mbps, 1088, Payload{Src: 1})
	tx1.Retain()
	defer tx1.Release()
	sched.Run(0)

	for i, tx := range []*Tx{tx0, tx1} {
		if !tx.Aborted() {
			t.Fatalf("tx%d not aborted", i)
		}
		if tx.Duration() != 20*time.Microsecond {
			t.Fatalf("tx%d duration %v, want 20µs (full frame %v)", i, tx.Duration(), full)
		}
	}
	if l0.done != 1 || l1.done != 1 {
		t.Fatalf("TxDone counts: %d, %d", l0.done, l1.done)
	}
	for _, ok := range apL.frames {
		if ok {
			t.Fatal("aborted frame decoded")
		}
	}
}

func TestAbortLateOverlapTruncatesFromOverlapStart(t *testing.T) {
	sched, m := abortMedium(20 * time.Microsecond)
	m.AddNode(APPosition(), &testListener{})
	ps := StationGrid(2)
	n0 := m.AddNode(ps[0], &txDoneListener{})
	n1 := m.AddNode(ps[1], &txDoneListener{})

	tx0 := m.Transmit(n0, Rate54Mbps, 1088, Payload{Src: 0})
	tx0.Retain()
	defer tx0.Release()
	var tx1 *Tx
	schedule(sched, 50*time.Microsecond, func(event.Time) {
		tx1 = m.Transmit(n1, Rate54Mbps, 128, Payload{Src: 1})
		tx1.Retain()
	})
	sched.Run(0)
	defer tx1.Release()

	// The first frame ran 50µs alone, then 20µs of overlap: 70µs total.
	if tx0.Duration() != 70*time.Microsecond {
		t.Fatalf("first frame duration %v, want 70µs", tx0.Duration())
	}
	if tx1.Duration() != 20*time.Microsecond {
		t.Fatalf("second frame duration %v, want 20µs", tx1.Duration())
	}
}

func TestNoAbortWithoutOverlap(t *testing.T) {
	sched, m := abortMedium(20 * time.Microsecond)
	apL := &testListener{}
	m.AddNode(APPosition(), apL)
	st := m.AddNode(Position{0, 0}, &txDoneListener{})

	tx := m.Transmit(st, Rate54Mbps, 128, Payload{Src: st.ID})
	tx.Retain()
	defer tx.Release()
	sched.Run(0)
	if tx.Aborted() {
		t.Fatal("solo frame aborted")
	}
	if len(apL.frames) != 1 || !apL.frames[0] {
		t.Fatalf("solo frame not delivered: %v", apL.frames)
	}
}

func TestAbortDisabledByDefault(t *testing.T) {
	sched, m := newTestMedium()
	m.AddNode(APPosition(), &testListener{})
	ps := StationGrid(2)
	n0 := m.AddNode(ps[0], &testListener{})
	n1 := m.AddNode(ps[1], &testListener{})
	tx0 := m.Transmit(n0, Rate54Mbps, 128, Payload{Src: 0})
	tx0.Retain()
	defer tx0.Release()
	m.Transmit(n1, Rate54Mbps, 128, Payload{Src: 1})
	sched.Run(0)
	if tx0.Aborted() {
		t.Fatal("abort triggered with AbortOverlapAfter = 0")
	}
	if tx0.Duration() != FrameDuration(Rate54Mbps, 128) {
		t.Fatalf("frame truncated without abort mode: %v", tx0.Duration())
	}
}

func TestAbortAirtimeAccounting(t *testing.T) {
	sched, m := abortMedium(20 * time.Microsecond)
	m.AddNode(APPosition(), &testListener{})
	ps := StationGrid(2)
	n0 := m.AddNode(ps[0], &txDoneListener{})
	n1 := m.AddNode(ps[1], &txDoneListener{})
	txs := []*Tx{m.Transmit(n0, Rate54Mbps, 1088, Payload{Src: 0}), m.Transmit(n1, Rate54Mbps, 1088, Payload{Src: 1})}
	for _, tx := range txs {
		tx.Retain()
		defer tx.Release()
	}
	sched.Run(0)
	if got := txs[0].Duration() + txs[1].Duration(); got != 40*time.Microsecond {
		t.Fatalf("airtime %v, want 40µs (two 20µs aborts)", got)
	}
}
