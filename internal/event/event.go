// Package event provides a minimal discrete-event simulation kernel: a
// monotonic virtual clock with nanosecond resolution and a cancellable
// four-ary-heap scheduler with stable FIFO ordering among simultaneous
// events.
//
// The MAC simulator is built on this kernel. Times are expressed as
// time.Duration offsets from the start of the simulation so that frame
// durations computed by the PHY plug in directly.
//
// # Performance model
//
// The kernel is the allocation floor of every simulation, so it recycles
// aggressively: fired and cancelled events return to a scheduler-owned
// free list, and the one scheduling entry point (ScheduleArg) takes a
// handler plus an untyped payload, so hot sites pass a plain function and
// a pointer instead of a closure and a steady-state run schedules millions
// of events with zero per-event heap allocations. The price is an
// ownership rule: an *Event returned by ScheduleArg is valid only until
// the event fires or is cancelled — after either, the scheduler may
// recycle the object for an unrelated event, so callers must drop (nil
// out) their reference at that moment and never Cancel through a stale
// pointer. All in-tree callers clear their timer fields on fire/cancel;
// see the package tests for the recycling contract.
//
// Events live in a scheduler-owned arena and never move, so handles stay
// stable; the heap orders pointer-free (time, sequence, slot) entries
// that refer to the arena by index, and a sift moves plain words.
package event

import (
	"fmt"
	"iter"
	"time"
)

// Time is simulated time since the start of the run.
type Time = time.Duration

// ArgHandler is the callback invoked when an event fires: now is the
// event's scheduled time (which equals the simulator clock at
// invocation) and arg the payload it was scheduled with. Hot call sites
// pass a package-level function and the state it needs (typically a
// pointer, so the any boxing does not allocate either) rather than a
// fresh closure per event.
type ArgHandler func(now Time, arg any)

// Event is a scheduled callback. It is owned by the Scheduler; callers
// keep a reference only to cancel it or ask when it fires (Scheduler.Time),
// and the reference is invalidated — the object may be recycled for a
// different event — the moment the event fires or is cancelled. Its firing
// time and sequence number live in the scheduler's heap entry, not here.
type Event struct {
	slot int32 // index into the scheduler's arena and heap-position table
	fn   ArgHandler
	arg  any
}

// Scheduler is a discrete-event scheduler. The zero value is ready to use.
// It is not safe for concurrent use; a simulation is single-goroutine by
// design (parallelism belongs at the trial level, not inside one run).
type Scheduler struct {
	now      Time
	seq      uint64
	queue    eventHeap
	events   []*Event // the arena: events[e.slot] == e for every event ever made
	free     []int32  // slots of fired and cancelled events, reused LIFO
	fired    uint64
	canceled uint64
	reused   uint64
	maxLen   int
}

// Stats is the kernel's deterministic work profile: every field is a pure
// function of the event sequence, never of wall-clock time, so the struct
// is safe to export from a simulation without perturbing reproducibility.
// It is a side channel — it must never be folded into fingerprints or
// serialized results.
type Stats struct {
	Scheduled   uint64 // events armed (seq counter; includes later-cancelled)
	Fired       uint64 // events executed
	Canceled    uint64 // events removed before firing
	Reused      uint64 // allocs served from the free list instead of the heap
	MaxQueueLen int    // queue depth high-water mark
}

// Stats returns the scheduler's cumulative work counters.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Scheduled:   s.seq,
		Fired:       s.fired,
		Canceled:    s.canceled,
		Reused:      s.reused,
		MaxQueueLen: s.maxLen,
	}
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Time returns the time an armed event is scheduled to fire. e must be
// armed: an event that has fired or been cancelled has no time, and
// asking for one panics.
func (s *Scheduler) Time(e *Event) Time {
	i := s.queue.pos[e.slot]
	if i < 0 {
		panic("event: Time of an event that is not armed")
	}
	return s.queue.items[i].at
}

// PendingLen returns the number of armed events. Cancellation removes an
// event from the queue immediately, so the count is exact.
func (s *Scheduler) PendingLen() int { return len(s.queue.items) }

// Pending iterates over the armed events' (time, payload) pairs in heap
// (not firing) order, for callers that need to inspect what is armed —
// e.g. the MAC's idle-slot fast-forward. The loop body must not schedule,
// cancel or fire events.
func (s *Scheduler) Pending() iter.Seq2[Time, any] {
	return func(yield func(Time, any) bool) {
		for _, x := range s.queue.items {
			if !yield(x.at, s.events[x.slot].arg) {
				return
			}
		}
	}
}

// ScheduleArg schedules fn(now, arg) to run delay after the current time.
// fn is typically a package-level function and arg a long-lived pointer,
// so neither the handler nor the payload escapes per event. label names
// the event in the panic a negative delay raises: the kernel refuses to
// travel backwards.
func (s *Scheduler) ScheduleArg(label string, delay time.Duration, fn ArgHandler, arg any) *Event {
	if fn == nil {
		panic("event: nil handler")
	}
	if delay < 0 {
		panic(fmt.Sprintf("event: negative delay %v at t=%v (%s)", delay, s.now, label))
	}
	e := s.alloc()
	e.fn = fn
	e.arg = arg
	s.queue.push(entry{at: s.now + delay, seq: s.seq, slot: e.slot})
	s.seq++
	if len(s.queue.items) > s.maxLen {
		s.maxLen = len(s.queue.items)
	}
	return e
}

// alloc takes a slot from the free list, or grows the arena by one event
// on a cold start.
func (s *Scheduler) alloc() *Event {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		s.reused++
		return s.events[slot]
	}
	e := &Event{slot: int32(len(s.events))}
	s.events = append(s.events, e)
	s.queue.pos = append(s.queue.pos, -1)
	return e
}

// release clears an event's handler and payload — dropping every
// reference it pinned — and returns its slot to the free list.
func (s *Scheduler) release(e *Event) {
	e.fn = nil
	e.arg = nil
	s.free = append(s.free, e.slot)
}

// Cancel prevents a scheduled event from firing: the event is removed from
// the queue immediately and its handler reference is dropped, so nothing
// the handler captured stays reachable through the scheduler. Cancelling
// an event that already fired, or cancelling twice, is a harmless no-op
// ONLY if the caller cleared its reference when the event fired (the
// pointer may otherwise alias a recycled, re-armed event). Cancel of nil
// is a no-op so callers can cancel optional timers unconditionally.
func (s *Scheduler) Cancel(e *Event) {
	if e == nil {
		return
	}
	i := s.queue.pos[e.slot]
	if i < 0 {
		return
	}
	s.queue.removeAt(int(i))
	s.canceled++
	s.release(e)
}

// Step fires the single earliest pending event. It reports whether an event
// was fired (false when the queue is empty).
func (s *Scheduler) Step() bool {
	if len(s.queue.items) == 0 {
		return false
	}
	top := s.queue.items[0]
	s.queue.removeAt(0)
	if top.at < s.now {
		panic(fmt.Sprintf("event: time went backwards: %v < %v", top.at, s.now))
	}
	s.now = top.at
	s.fired++
	e := s.events[top.slot]
	e.fn(s.now, e.arg)
	s.release(e)
	return true
}

// Run executes events until the queue is empty or limit events have fired.
// A limit of 0 means no limit. It returns the number of events fired by this
// call and whether the queue drained (as opposed to hitting the limit).
func (s *Scheduler) Run(limit uint64) (fired uint64, drained bool) {
	for {
		if limit > 0 && fired >= limit {
			return fired, false
		}
		if !s.Step() {
			return fired, true
		}
		fired++
	}
}

// RunUntil executes events with time <= deadline. Events scheduled beyond
// the deadline remain queued; the clock advances to at most the deadline.
func (s *Scheduler) RunUntil(deadline Time) (fired uint64) {
	for len(s.queue.items) > 0 && s.queue.items[0].at <= deadline {
		s.Step()
		fired++
	}
	if s.now < deadline {
		s.now = deadline
	}
	return fired
}

// DeferAll postpones every pending event by delta. A uniform shift
// preserves both the relative firing order (times move together, sequence
// numbers are untouched) and the heap invariant, so it costs one pass over
// the heap entries and no re-sorting. It is the kernel half of the MAC's
// idle-slot fast-forward: the caller accounts for the skipped virtual
// time, the kernel moves the armed expiries. Negative delta panics.
func (s *Scheduler) DeferAll(delta time.Duration) {
	if delta < 0 {
		panic(fmt.Sprintf("event: DeferAll(%v): negative delta", delta))
	}
	for i := range s.queue.items {
		s.queue.items[i].at += delta
	}
}

// entry is one armed event in the heap: its firing time, its sequence
// number and its arena slot. It holds no pointer, so sifting entries
// moves plain words — no pointer chase per comparison and no GC write
// barrier per move.
type entry struct {
	at   Time
	seq  uint64
	slot int32
}

// before orders entries by (time, insertion sequence); sequence numbers
// are unique, so the order is total and firing order is stable FIFO among
// simultaneous events.
func (x entry) before(y entry) bool { return beforeBit(x, y) == 1 }

// beforeBit is before as 1 or 0, computed without a branch: which child
// of a heap node fires first is a coin flip to the branch predictor, so
// down picks the earliest child by arithmetic on these bits.
func beforeBit(x, y entry) int {
	var lt, eq, seq int
	if x.at < y.at {
		lt = 1
	}
	if x.at == y.at {
		eq = 1
	}
	if x.seq < y.seq {
		seq = 1
	}
	return lt | eq&seq
}

// eventHeap is a hand-rolled four-ary min-heap of entries: a stable
// priority queue. pos[slot] is the heap index of the slot's entry, or -1
// while the slot is not armed, so Cancel and Time find an event in O(1).
// Hand-rolling (vs container/heap) removes the interface dispatch on every
// sift, sifts move a hole rather than swapping, writing each moved entry
// once, and down picks the earliest child without branching on the
// comparisons. Four children per node halve the depth: that ties a binary
// heap at MAC-typical depths — queue depth, Stats().MaxQueueLen, tracks
// the station count, one armed timer per station — and is ~20% faster at
// the 10^5 depths of the large-population target (BenchmarkHeapKernel4ary
// vs BenchmarkHeapKernelBinary). A calendar queue was rejected: its bucket
// rotation needs resize heuristics that would make firing order depend on
// tuning parameters.
type eventHeap struct {
	items []entry
	pos   []int32
}

func (h *eventHeap) push(x entry) {
	h.items = append(h.items, x)
	h.up(len(h.items)-1, x)
}

// removeAt deletes the entry at heap index i (the root when firing, any
// index on cancellation) and marks its slot unarmed.
func (h *eventHeap) removeAt(i int) {
	h.pos[h.items[i].slot] = -1
	last := len(h.items) - 1
	x := h.items[last]
	h.items = h.items[:last]
	if i == last {
		return
	}
	if i > 0 && x.before(h.items[(i-1)/4]) {
		h.up(i, x)
	} else {
		h.down(i, x)
	}
}

// up moves x from the hole at i towards the root until its parent is
// earlier, then stores it.
func (h *eventHeap) up(i int, x entry) {
	for i > 0 {
		parent := (i - 1) / 4
		p := h.items[parent]
		if !x.before(p) {
			break
		}
		h.items[i] = p
		h.pos[p.slot] = int32(i)
		i = parent
	}
	h.items[i] = x
	h.pos[x.slot] = int32(i)
}

// down moves x from the hole at i towards the leaves until no child is
// earlier, then stores it.
func (h *eventHeap) down(i int, x entry) {
	items := h.items
	n := len(items)
sift:
	for {
		first := 4*i + 1
		var c int // the earliest child
		switch {
		case first+3 < n: // a full node: a tournament of its four children
			q := items[first : first+4 : first+4]
			a := beforeBit(q[1], q[0])
			b := 2 + beforeBit(q[3], q[2])
			c = first + a + (b-a)*beforeBit(q[b], q[a])
		case first < n:
			c = first
			for k := first + 1; k < n; k++ {
				c += (k - c) * beforeBit(items[k], items[c])
			}
		default:
			break sift
		}
		b := items[c]
		if !b.before(x) {
			break
		}
		items[i] = b
		h.pos[b.slot] = int32(i)
		i = c
	}
	items[i] = x
	h.pos[x.slot] = int32(i)
}
