package event

// A differential test of the scheduler against the pointer heap it
// replaced. refScheduler is that kernel as it was: events carry their own
// time, sequence number and heap index, and the four-ary heap sifts
// *refEvent pointers. It is kept here, and only here, as the oracle for
// firing order and work counters.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/rng"
)

type refEvent struct {
	at    Time
	seq   uint64
	index int // heap index, -1 once removed
	fn    ArgHandler
	arg   any
}

type refScheduler struct {
	now      Time
	seq      uint64
	queue    refHeap
	free     []*refEvent
	fired    uint64
	canceled uint64
	reused   uint64
	maxLen   int
}

func (s *refScheduler) stats() Stats {
	return Stats{Scheduled: s.seq, Fired: s.fired, Canceled: s.canceled, Reused: s.reused, MaxQueueLen: s.maxLen}
}

func (s *refScheduler) schedule(delay time.Duration, fn ArgHandler, arg any) *refEvent {
	var e *refEvent
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free = s.free[:n-1]
		s.reused++
	} else {
		e = &refEvent{}
	}
	e.at, e.seq, e.fn, e.arg = s.now+delay, s.seq, fn, arg
	s.seq++
	s.queue.push(e)
	s.maxLen = max(s.maxLen, len(s.queue))
	return e
}

func (s *refScheduler) release(e *refEvent) {
	e.fn, e.arg, e.index = nil, nil, -1
	s.free = append(s.free, e)
}

func (s *refScheduler) cancel(e *refEvent) {
	if e == nil || e.index < 0 {
		return
	}
	s.queue.removeAt(e.index)
	s.canceled++
	s.release(e)
}

func (s *refScheduler) step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := s.queue.popMin()
	s.now = e.at
	s.fired++
	e.fn(s.now, e.arg)
	s.release(e)
	return true
}

func (s *refScheduler) runUntil(deadline Time) (fired uint64) {
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		s.step()
		fired++
	}
	s.now = max(s.now, deadline)
	return fired
}

func (s *refScheduler) deferAll(delta time.Duration) {
	for _, e := range s.queue {
		e.at += delta
	}
}

type refHeap []*refEvent

func (h refHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *refHeap) push(e *refEvent) {
	e.index = len(*h)
	*h = append(*h, e)
	h.up(e.index)
}

func (h *refHeap) popMin() *refEvent {
	e := (*h)[0]
	h.removeAt(0)
	return e
}

func (h *refHeap) removeAt(i int) {
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

func (h refHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h refHeap) down(i int) {
	n := len(h)
	for {
		best := i
		for c := 4*i + 1; c < min(4*i+5, n); c++ {
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

// firing is one handler invocation: when it ran and which event it was.
type firing struct {
	at Time
	id int
}

// twin drives the scheduler and the oracle through the same operations.
// Each event gets an id, passed as its payload; armed maps an id to both
// sides' handles while the event is armed on either side.
type twin struct {
	s         Scheduler
	o         refScheduler
	got, want []firing
	armed     map[int]*handles
	nextID    int
}

type handles struct {
	e *Event
	r *refEvent
}

// handler returns side's (0: scheduler, 1: oracle) handler. It logs the
// firing, drops the fired handle, and every third event at depth below 3
// reschedules a child, so handlers that schedule are part of the mix. The
// child's delay is a function of the id alone, so both sides agree on it.
func (w *twin) handler(side int) ArgHandler {
	var h ArgHandler
	h = func(now Time, arg any) {
		id := arg.(int)
		hs := w.armed[id]
		if side == 0 {
			w.got = append(w.got, firing{now, id})
			hs.e = nil
		} else {
			w.want = append(w.want, firing{now, id})
			hs.r = nil
		}
		if hs.e == nil && hs.r == nil {
			delete(w.armed, id)
		}
		if id%3 == 0 && id < 3_000_000 {
			w.arm(side, time.Duration(id%11), id+1_000_000, h)
		}
	}
	return h
}

// arm schedules event id on one side and records its handle.
func (w *twin) arm(side int, delay time.Duration, id int, fn ArgHandler) {
	hs := w.armed[id]
	if hs == nil {
		hs = &handles{}
		w.armed[id] = hs
	}
	if side == 0 {
		hs.e = w.s.ScheduleArg("", delay, fn, id)
	} else {
		hs.r = w.o.schedule(delay, fn, id)
	}
}

// cancelAt cancels, on both sides, the event at heap index i of the
// scheduler under test.
func (w *twin) cancelAt(t *testing.T, i int) {
	id := w.s.events[w.s.queue.items[i].slot].arg.(int)
	hs := w.armed[id]
	if hs == nil || hs.e == nil || hs.r == nil {
		t.Fatalf("event %d at heap index %d is not armed on both sides", id, i)
	}
	for range 2 { // the second Cancel, before any reschedule, is a no-op
		w.s.Cancel(hs.e)
		w.o.cancel(hs.r)
	}
	delete(w.armed, id)
}

// TestSchedulerMatchesPointerHeap drives the value-entry heap and the old
// pointer heap through random interleavings of schedule (with many
// equal-time ties), cancellation at the heap root, middle and last index,
// Step, RunUntil, DeferAll and handlers that reschedule, and requires the
// same firing sequence (time, payload), clock, queue length, Stats and
// armed times after every operation.
func TestSchedulerMatchesPointerHeap(t *testing.T) {
	root := rng.New(33)
	for trial := 0; trial < 200; trial++ {
		g := root.DeriveIndexed("trial-", trial)
		w := &twin{armed: map[int]*handles{}}
		hs, ho := w.handler(0), w.handler(1)
		for op := 0; op < 400; op++ {
			n := w.s.PendingLen()
			switch k := g.Intn(20); {
			case k < 8: // schedule; delays in [0, 12) tie often
				d := time.Duration(g.Intn(12))
				id := w.nextID
				w.nextID++
				w.arm(0, d, id, hs)
				w.arm(1, d, id, ho)
			case k == 8 && n > 0:
				w.cancelAt(t, 0)
			case k == 9 && n > 0:
				w.cancelAt(t, n/2)
			case k == 10 && n > 0:
				w.cancelAt(t, n-1)
			case k == 11 && n > 0:
				w.cancelAt(t, g.Intn(n))
			case k < 16:
				if a, b := w.s.Step(), w.o.step(); a != b {
					t.Fatalf("trial %d op %d: Step = %v, oracle %v", trial, op, a, b)
				}
			case k < 18:
				deadline := w.s.Now() + time.Duration(g.Intn(15))
				if a, b := w.s.RunUntil(deadline), w.o.runUntil(deadline); a != b {
					t.Fatalf("trial %d op %d: RunUntil fired %d, oracle %d", trial, op, a, b)
				}
			default:
				d := time.Duration(g.Intn(10))
				w.s.DeferAll(d)
				w.o.deferAll(d)
			}
			w.check(t, fmt.Sprintf("trial %d op %d", trial, op))
		}
		w.s.Run(0)
		for w.o.step() {
		}
		w.check(t, fmt.Sprintf("trial %d drain", trial))
	}
}

// check compares the two sides' observable state.
func (w *twin) check(t *testing.T, where string) {
	t.Helper()
	if len(w.got) != len(w.want) {
		t.Fatalf("%s: %d firings, oracle %d", where, len(w.got), len(w.want))
	}
	for i := range w.got {
		if w.got[i] != w.want[i] {
			t.Fatalf("%s: firing %d is %+v, oracle %+v", where, i, w.got[i], w.want[i])
		}
	}
	if w.s.Now() != w.o.now || w.s.PendingLen() != len(w.o.queue) {
		t.Fatalf("%s: now/pending %v/%d, oracle %v/%d", where, w.s.Now(), w.s.PendingLen(), w.o.now, len(w.o.queue))
	}
	if a, b := w.s.Stats(), w.o.stats(); a != b {
		t.Fatalf("%s: Stats %+v, oracle %+v", where, a, b)
	}
	for id, hs := range w.armed {
		if hs.e == nil || hs.r == nil {
			t.Fatalf("%s: event %d armed on one side only", where, id)
		}
		if a, b := w.s.Time(hs.e), hs.r.at; a != b {
			t.Fatalf("%s: event %d due at %v, oracle %v", where, id, a, b)
		}
	}
}
