package phy

import (
	"testing"

	"repro/internal/event"
)

// Retain adds a reference so the handle stays valid — the object will not
// be recycled for another transmission — until a matching Release. Only
// tests hold a Tx past its callbacks.
func (t *Tx) Retain() {
	t.checkLive("Retain")
	t.refs++
}

// nopListener discards every callback: the allocation tests below must not
// have test bookkeeping (testListener's frames append) in the measured path.
type nopListener struct{}

func (nopListener) ChannelBusy(event.Time)         {}
func (nopListener) ChannelIdle(event.Time)         {}
func (nopListener) FrameEnd(*Tx, bool, event.Time) {}
func (nopListener) TxDone(*Tx, event.Time)         {}

// TestSteadyStateTransmitZeroAlloc pins the tentpole invariant: once the Tx
// pool, event free list, and scratch buffers are warm, a full transmit +
// frame-end cycle allocates nothing.
func TestSteadyStateTransmitZeroAlloc(t *testing.T) {
	sched, m := newTestMedium()
	m.AddNode(APPosition(), nopListener{})
	st := m.AddNode(Position{0, 0}, nopListener{})

	// Warm up: first cycles build the gain matrix, grow the event pool, and
	// seed the Tx free list.
	for i := 0; i < 3; i++ {
		m.Transmit(st, Rate54Mbps, 1088, Payload{Src: 0})
		sched.Run(0)
	}

	if avg := testing.AllocsPerRun(100, func() {
		m.Transmit(st, Rate54Mbps, 1088, Payload{Src: 0})
		sched.Run(0)
	}); avg != 0 {
		t.Fatalf("steady-state transmit cycle allocates %.2f objects, want 0", avg)
	}
}

// TestSteadyStateOverlapZeroAlloc does the same for a two-way collision:
// mutual interference bookkeeping, the SINR sweep, and the symmetric
// release chain must all run out of recycled capacity.
func TestSteadyStateOverlapZeroAlloc(t *testing.T) {
	sched, m := newTestMedium()
	m.AddNode(APPosition(), nopListener{})
	ps := StationGrid(2)
	n0 := m.AddNode(ps[0], nopListener{})
	n1 := m.AddNode(ps[1], nopListener{})

	for i := 0; i < 3; i++ {
		m.Transmit(n0, Rate54Mbps, 1088, Payload{Src: 0})
		m.Transmit(n1, Rate54Mbps, 128, Payload{Src: 1})
		sched.Run(0)
	}

	if avg := testing.AllocsPerRun(100, func() {
		m.Transmit(n0, Rate54Mbps, 1088, Payload{Src: 0})
		m.Transmit(n1, Rate54Mbps, 128, Payload{Src: 1})
		sched.Run(0)
	}); avg != 0 {
		t.Fatalf("steady-state 2-way overlap cycle allocates %.2f objects, want 0", avg)
	}
}

// TestPoolRetainSurvivesRecycling exercises the lifetime contract end to
// end: a Retain'd handle keeps its object out of the pool (field values
// intact, no aliasing with later transmissions) and Release returns it.
func TestPoolRetainSurvivesRecycling(t *testing.T) {
	sched, m := newTestMedium()
	m.AddNode(APPosition(), nopListener{})
	st := m.AddNode(Position{0, 0}, nopListener{})

	tx0 := m.Transmit(st, Rate54Mbps, 1088, Payload{Kind: 7, Src: 3})
	tx0.Retain()
	end0 := tx0.End
	sched.Run(0)

	// The retained object must not be handed to the next transmission.
	tx1 := m.Transmit(st, Rate54Mbps, 128, Payload{Src: 3})
	if tx1 == tx0 {
		t.Fatal("retained Tx was recycled into a new transmission")
	}
	sched.Run(0)

	if tx0.Payload != (Payload{Kind: 7, Src: 3}) || tx0.End != end0 || tx0.Src == nil {
		t.Fatalf("retained Tx fields clobbered: payload %+v end %v src %v", tx0.Payload, tx0.End, tx0.Src)
	}
	if tx0.Duration() != FrameDuration(Rate54Mbps, 1088) {
		t.Fatalf("retained Tx duration %v", tx0.Duration())
	}

	// Release puts the object back in the pool; the free list is LIFO, so
	// the very next transmission reuses it.
	tx0.Release()
	tx2 := m.Transmit(st, Rate54Mbps, 128, Payload{Src: 3})
	if tx2 != tx0 {
		t.Fatal("released Tx did not return to the pool")
	}
	sched.Run(0)
}

// TestUseAfterReleasePanics pins the debug mode: with CheckTxReuse set,
// every method on a handle that outlived its transmission panics, and the
// poisoned fields are unmistakable.
func TestUseAfterReleasePanics(t *testing.T) {
	sched, m := newTestMedium()
	m.CheckTxReuse = true
	m.AddNode(APPosition(), nopListener{})
	st := m.AddNode(Position{0, 0}, nopListener{})

	tx := m.Transmit(st, Rate54Mbps, 128, Payload{Src: 0})
	sched.Run(0) // no Retain: the medium recycles (here: quarantines) the Tx

	if tx.Start != -1 || tx.Src != nil {
		t.Fatalf("quarantined Tx not poisoned: start %v src %v", tx.Start, tx.Src)
	}
	for name, f := range map[string]func(){
		"Duration":        func() { tx.Duration() },
		"Aborted":         func() { tx.Aborted() },
		"InterfererCount": func() { tx.InterfererCount() },
		"Retain":          func() { tx.Retain() },
		"Release":         func() { tx.Release() },
	} {
		if !panics(f) {
			t.Errorf("Tx.%s on a released handle did not panic", name)
		}
	}
}

// TestRetainAfterRunKeepsHandleLive is the positive counterpart: the same
// sequence with a Retain neither panics nor poisons.
func TestRetainAfterRunKeepsHandleLive(t *testing.T) {
	sched, m := newTestMedium()
	m.CheckTxReuse = true
	m.AddNode(APPosition(), nopListener{})
	st := m.AddNode(Position{0, 0}, nopListener{})

	tx := m.Transmit(st, Rate54Mbps, 128, Payload{Src: 0})
	tx.Retain()
	sched.Run(0)
	if tx.Duration() != FrameDuration(Rate54Mbps, 128) {
		t.Fatalf("retained Tx duration %v", tx.Duration())
	}
	tx.Release()
	if !panics(func() { tx.Duration() }) {
		t.Fatal("final Release did not invalidate the handle")
	}
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}
