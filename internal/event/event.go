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
package event

import (
	"fmt"
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
// keep a reference only to cancel it, and the reference is invalidated —
// the object may be recycled for a different event — the moment the event
// fires or is cancelled.
type Event struct {
	at    Time
	seq   uint64
	index int // heap index, -1 once removed
	fn    ArgHandler
	arg   any
}

// Time returns the time the event is scheduled to fire.
func (e *Event) Time() Time { return e.at }

// Arg returns the payload attached by ScheduleArg.
func (e *Event) Arg() any { return e.arg }

// Scheduler is a discrete-event scheduler. The zero value is ready to use.
// It is not safe for concurrent use; a simulation is single-goroutine by
// design (parallelism belongs at the trial level, not inside one run).
type Scheduler struct {
	now      Time
	seq      uint64
	queue    eventHeap
	free     []*Event
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

// PendingEvents exposes the scheduler's internal queue in heap (not
// firing) order, for callers that need to inspect what is armed — e.g.
// the MAC's idle-slot fast-forward. Cancellation removes an event from
// the queue immediately, so its length is the exact number of armed
// events. The slice and the events it holds are owned by the scheduler:
// treat both as read-only, and do not retain them past the next
// scheduler operation.
func (s *Scheduler) PendingEvents() []*Event { return s.queue }

// ScheduleArg schedules fn(now, arg) to run delay after the current time.
// fn is typically a package-level function and arg a long-lived pointer,
// so neither the handler nor the payload escapes per event. label names
// the event in the panic a negative delay raises: the kernel refuses to
// travel backwards.
func (s *Scheduler) ScheduleArg(label string, delay time.Duration, fn ArgHandler, arg any) *Event {
	if fn == nil {
		panic("event: nil handler")
	}
	e := s.alloc(label, delay)
	e.fn = fn
	e.arg = arg
	s.push(e)
	return e
}

// alloc takes an event from the free list (or the heap allocator on a
// cold start) and stamps its time and sequence number.
func (s *Scheduler) alloc(label string, delay time.Duration) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("event: negative delay %v at t=%v (%s)", delay, s.now, label))
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		s.reused++
	} else {
		e = &Event{}
	}
	e.at = s.now + delay
	e.seq = s.seq
	s.seq++
	return e
}

// release clears an event's handler and payload — dropping every
// reference it pinned — and returns it to the free list for reuse.
func (s *Scheduler) release(e *Event) {
	e.fn = nil
	e.arg = nil
	e.index = -1
	s.free = append(s.free, e)
}

func (s *Scheduler) push(e *Event) {
	s.queue.push(e)
	if len(s.queue) > s.maxLen {
		s.maxLen = len(s.queue)
	}
}

// Cancel prevents a scheduled event from firing: the event is removed from
// the queue immediately and its handler reference is dropped, so nothing
// the handler captured stays reachable through the scheduler. Cancelling
// an event that already fired, or cancelling twice, is a harmless no-op
// ONLY if the caller cleared its reference when the event fired (the
// pointer may otherwise alias a recycled, re-armed event). Cancel of nil
// is a no-op so callers can cancel optional timers unconditionally.
func (s *Scheduler) Cancel(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	s.queue.removeAt(e.index)
	s.canceled++
	s.release(e)
}

// Step fires the single earliest pending event. It reports whether an event
// was fired (false when the queue is empty).
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := s.queue.popMin()
	if e.at < s.now {
		panic(fmt.Sprintf("event: time went backwards: %v < %v", e.at, s.now))
	}
	s.now = e.at
	s.fired++
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
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
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
// numbers are untouched) and the heap invariant, so it costs one pass and
// no re-sorting. It is the kernel half of the MAC's idle-slot
// fast-forward: the caller accounts for the skipped virtual time, the
// kernel moves the armed expiries. Negative delta panics.
func (s *Scheduler) DeferAll(delta time.Duration) {
	if delta < 0 {
		panic(fmt.Sprintf("event: DeferAll(%v): negative delta", delta))
	}
	for _, e := range s.queue {
		e.at += delta
	}
}

// eventHeap is a hand-rolled four-ary min-heap ordered by (time, insertion
// sequence): a stable priority queue. Hand-rolling (vs container/heap)
// removes the interface dispatch on every sift; four children per node
// halve the tree depth, which benchmarks at parity with a binary heap at
// small depths and ~5-10% faster at the 10^5 depths the large-population
// target needs — queue depth (Stats().MaxQueueLen) tracks the station
// count, one armed timer per station (see BenchmarkHeapKernel4ary vs
// BenchmarkHeapKernelBinary). A calendar queue was rejected: its bucket
// rotation needs resize heuristics that would make firing order depend on
// tuning parameters, and the heap is already off the profile once events
// are pooled.
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) push(e *Event) {
	e.index = len(*h)
	*h = append(*h, e)
	h.up(e.index)
}

// popMin removes and returns the earliest event.
func (h *eventHeap) popMin() *Event {
	old := *h
	e := old[0]
	last := len(old) - 1
	old[0] = old[last]
	old[0].index = 0
	old[last] = nil
	*h = old[:last]
	if last > 0 {
		h.down(0)
	}
	e.index = -1
	return e
}

// removeAt deletes the event at heap position i (eager cancellation).
func (h *eventHeap) removeAt(i int) {
	old := *h
	e := old[i]
	last := len(old) - 1
	if i != last {
		old[i] = old[last]
		old[i].index = i
	}
	old[last] = nil
	*h = old[:last]
	if i < last {
		h.down(i)
		h.up(i)
	}
	e.index = -1
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		best := i
		first := 4*i + 1
		end := first + 4
		if end > n {
			end = n
		}
		for c := first; c < end; c++ {
			if h.less(c, best) {
				best = c
			}
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}
