package phy

import (
	"testing"
	"time"

	"repro/internal/event"
)

// txDoneListener records what each TxDone reports about the node's own
// transmission. It keeps values, not the *Tx handle, which is valid only
// until the callback returns: the contract the MAC follows too.
type txDoneListener struct {
	testListener
	aborted []bool
	durs    []time.Duration
}

func (l *txDoneListener) TxDone(tx *Tx, _ event.Time) {
	l.aborted = append(l.aborted, tx.Aborted())
	l.durs = append(l.durs, tx.Duration())
}

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
	m.Transmit(n0, Rate54Mbps, 1088, Payload{Src: 0})
	m.Transmit(n1, Rate54Mbps, 1088, Payload{Src: 1})
	sched.Run(0)

	for i, l := range []*txDoneListener{l0, l1} {
		if len(l.durs) != 1 {
			t.Fatalf("tx%d: %d TxDone callbacks, want 1", i, len(l.durs))
		}
		if !l.aborted[0] {
			t.Fatalf("tx%d not aborted", i)
		}
		if l.durs[0] != 20*time.Microsecond {
			t.Fatalf("tx%d duration %v, want 20µs (full frame %v)", i, l.durs[0], full)
		}
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
	l0, l1 := &txDoneListener{}, &txDoneListener{}
	ps := StationGrid(2)
	n0 := m.AddNode(ps[0], l0)
	n1 := m.AddNode(ps[1], l1)

	m.Transmit(n0, Rate54Mbps, 1088, Payload{Src: 0})
	schedule(sched, 50*time.Microsecond, func(event.Time) {
		m.Transmit(n1, Rate54Mbps, 128, Payload{Src: 1})
	})
	sched.Run(0)

	// The first frame ran 50µs alone, then 20µs of overlap: 70µs total.
	if len(l0.durs) != 1 || l0.durs[0] != 70*time.Microsecond {
		t.Fatalf("first frame durations %v, want [70µs]", l0.durs)
	}
	if len(l1.durs) != 1 || l1.durs[0] != 20*time.Microsecond {
		t.Fatalf("second frame durations %v, want [20µs]", l1.durs)
	}
}

func TestNoAbortWithoutOverlap(t *testing.T) {
	sched, m := abortMedium(20 * time.Microsecond)
	apL := &testListener{}
	m.AddNode(APPosition(), apL)
	l := &txDoneListener{}
	st := m.AddNode(Position{0, 0}, l)

	m.Transmit(st, Rate54Mbps, 128, Payload{Src: st.ID})
	sched.Run(0)
	if len(l.aborted) != 1 || l.aborted[0] {
		t.Fatalf("solo frame aborted: %v", l.aborted)
	}
	if len(apL.frames) != 1 || !apL.frames[0] {
		t.Fatalf("solo frame not delivered: %v", apL.frames)
	}
}

func TestAbortDisabledByDefault(t *testing.T) {
	sched, m := newTestMedium()
	m.AddNode(APPosition(), &testListener{})
	l0 := &txDoneListener{}
	ps := StationGrid(2)
	n0 := m.AddNode(ps[0], l0)
	n1 := m.AddNode(ps[1], &testListener{})
	m.Transmit(n0, Rate54Mbps, 128, Payload{Src: 0})
	m.Transmit(n1, Rate54Mbps, 128, Payload{Src: 1})
	sched.Run(0)
	if len(l0.aborted) != 1 || l0.aborted[0] {
		t.Fatalf("abort triggered with AbortOverlapAfter = 0: %v", l0.aborted)
	}
	if l0.durs[0] != FrameDuration(Rate54Mbps, 128) {
		t.Fatalf("frame truncated without abort mode: %v", l0.durs[0])
	}
}

func TestAbortAirtimeAccounting(t *testing.T) {
	sched, m := abortMedium(20 * time.Microsecond)
	m.AddNode(APPosition(), &testListener{})
	l := &txDoneListener{}
	ps := StationGrid(2)
	n0 := m.AddNode(ps[0], l)
	n1 := m.AddNode(ps[1], l)
	m.Transmit(n0, Rate54Mbps, 1088, Payload{Src: 0})
	m.Transmit(n1, Rate54Mbps, 1088, Payload{Src: 1})
	sched.Run(0)
	var got time.Duration
	for _, d := range l.durs {
		got += d
	}
	if len(l.durs) != 2 || got != 40*time.Microsecond {
		t.Fatalf("airtime %v over %d frames, want 40µs (two 20µs aborts)", got, len(l.durs))
	}
}
