package phy

import (
	"testing"
	"time"

	"repro/internal/event"
)

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
	// fill the Tx pool.
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
// mutual interference bookkeeping, the SINR sweep, and the busy period's
// recycling must all run out of recycled capacity.
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

// TestBusyPeriodChainRecyclesAtSilence pins busy-period recycling on a
// chain: tx0 overlaps tx1 and tx1 overlaps tx2, while tx0 and tx2 are
// disjoint. tx0 ends before tx2 starts, but tx1 is on the air throughout
// and reads tx0's fields at its own end, so no Tx of the period may be
// reused until the medium falls silent. Then all three are pooled at once.
func TestBusyPeriodChainRecyclesAtSilence(t *testing.T) {
	sched, m := newTestMedium()
	m.AddNode(APPosition(), nopListener{})
	ps := StationGrid(3)
	n0 := m.AddNode(ps[0], nopListener{})
	n1 := m.AddNode(ps[1], nopListener{})
	n2 := m.AddNode(ps[2], nopListener{})

	tx0 := m.Transmit(n0, Rate54Mbps, 128, Payload{Src: 0})  // [0, 40µs)
	tx1 := m.Transmit(n1, Rate54Mbps, 1088, Payload{Src: 1}) // [0, 184µs)
	var tx2 *Tx
	schedule(sched, 100*time.Microsecond, func(event.Time) {
		if tx0.released || m.TxRecycles != 0 {
			t.Errorf("tx0 recycled while tx1 is on the air (recycles %d)", m.TxRecycles)
		}
		tx2 = m.Transmit(n2, Rate54Mbps, 128, Payload{Src: 2}) // [100µs, 140µs)
		if tx2 == tx0 || tx2 == tx1 {
			t.Error("tx2 reused a Tx of its own busy period")
		}
		if tx0.Src != n0 || tx0.End != event.Time(40*time.Microsecond) {
			t.Errorf("tx0 clobbered while tx1 is on the air: src %v end %v", tx0.Src, tx0.End)
		}
	})
	sched.Run(0)

	if m.TxRecycles != 3 || m.TxReuses != 0 || m.inUse != 0 {
		t.Fatalf("at silence: recycles %d reuses %d in use %d, want 3, 0, 0", m.TxRecycles, m.TxReuses, m.inUse)
	}
	for i, tx := range []*Tx{tx0, tx1, tx2} {
		if !panics(func() { tx.Duration() }) {
			t.Errorf("tx%d still live after its busy period", i)
		}
	}

	// The next busy period draws the three pooled objects, cold nothing.
	again := map[*Tx]bool{
		m.Transmit(n0, Rate54Mbps, 128, Payload{}): true,
		m.Transmit(n1, Rate54Mbps, 128, Payload{}): true,
		m.Transmit(n2, Rate54Mbps, 128, Payload{}): true,
	}
	sched.Run(0)
	if !again[tx0] || !again[tx1] || !again[tx2] || m.TxReuses != 3 {
		t.Fatalf("pooled Txs not reused: %d reuses", m.TxReuses)
	}
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
	sched.Run(0) // silence: the medium recycles (here: quarantines) the Tx

	if tx.Start != -1 || tx.Src != nil {
		t.Fatalf("quarantined Tx not poisoned: start %v src %v", tx.Start, tx.Src)
	}
	for name, f := range map[string]func(){
		"Duration":        func() { tx.Duration() },
		"Aborted":         func() { tx.Aborted() },
		"InterfererCount": func() { tx.InterfererCount() },
	} {
		if !panics(f) {
			t.Errorf("Tx.%s on a released handle did not panic", name)
		}
	}
	if next := m.Transmit(st, Rate54Mbps, 128, Payload{Src: 0}); next == tx || m.TxQuarantined != 1 {
		t.Fatalf("quarantined Tx handed out again (quarantined %d)", m.TxQuarantined)
	}
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}
