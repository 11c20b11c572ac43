package event

// Tests for the kernel's performance contracts: the event free list, eager
// cancellation, the closure-free ScheduleArg path, DeferAll, and the
// four-ary heap of value entries — including the differential ordering
// check and the binary-heap comparison benchmark behind the queue choice
// (DESIGN.md "Event kernel performance model").

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/rng"
)

// TestFireRecyclesEvent pins the free-list contract: after an event fires,
// the scheduler owns its object again — the next ScheduleArg reuses it and no
// handler or payload reference survives on it.
func TestFireRecyclesEvent(t *testing.T) {
	var s Scheduler
	e1 := schedule(&s, 1, func(Time) {})
	s.Run(0)
	if e1.fn != nil || e1.arg != nil {
		t.Fatalf("fired event still pins handler state: %+v", e1)
	}
	e2 := schedule(&s, 1, func(Time) {})
	if e1 != e2 {
		t.Fatal("second ScheduleArg after a fire did not reuse the recycled event")
	}
}

// TestCancelIsEagerAndDropsHandler pins the Cancel bugfix: cancellation
// removes the event from the queue immediately (PendingLen is exact) and nils
// the handler, so whatever the closure captured becomes collectable right
// away instead of being pinned until a lazy drain.
func TestCancelIsEagerAndDropsHandler(t *testing.T) {
	var s Scheduler
	payload := make([]byte, 1<<20)
	e := schedule(&s, 10, func(Time) { _ = payload[0] })
	if n := s.PendingLen(); n != 1 {
		t.Fatalf("pending = %d before cancel", n)
	}
	s.Cancel(e)
	if n := s.PendingLen(); n != 0 {
		t.Fatalf("pending = %d after cancel, want 0 (eager removal)", n)
	}
	if e.fn != nil || e.arg != nil {
		t.Fatal("cancelled event still references its handler/payload")
	}
	// The cancelled object is back on the free list: the next ScheduleArg
	// reuses it, and the run fires only that one.
	fired := 0
	if e2 := schedule(&s, 1, func(Time) { fired++ }); e2 != e {
		t.Fatal("cancelled event was not recycled")
	}
	s.Run(0)
	if fired != 1 || s.Stats().Fired != 1 {
		t.Fatalf("fired=%d Stats().Fired=%d, want 1/1", fired, s.Stats().Fired)
	}
}

func TestScheduleArgDeliversPayload(t *testing.T) {
	var s Scheduler
	type box struct{ hits int }
	b := &box{}
	h := func(now Time, arg any) {
		if now != 5 {
			t.Errorf("fired at %v, want 5", now)
		}
		arg.(*box).hits++
	}
	s.ScheduleArg("probe", 5, h, b)
	s.Run(0)
	if b.hits != 1 {
		t.Fatalf("payload handler ran %d times", b.hits)
	}
}

func TestScheduleArgNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil ArgHandler did not panic")
		}
	}()
	var s Scheduler
	s.ScheduleArg("", 1, nil, 7)
}

func TestDeferAllShiftsUniformly(t *testing.T) {
	var s Scheduler
	var fired []time.Duration
	record := func(now Time, _ any) { fired = append(fired, now) }
	var order []int
	for i, d := range []time.Duration{10, 10, 30, 20} {
		i := i
		s.ScheduleArg("", d, func(now Time, arg any) {
			record(now, arg)
			order = append(order, i)
		}, nil)
	}
	s.DeferAll(7)
	s.Run(0)
	want := []time.Duration{17, 17, 27, 37}
	for i, w := range want {
		if fired[i] != w {
			t.Fatalf("event %d fired at %v, want %v (%v)", i, fired[i], w, fired)
		}
	}
	// FIFO order among the two equal-time events survives the shift.
	if order[0] != 0 || order[1] != 1 {
		t.Fatalf("equal-time order after DeferAll: %v", order)
	}
}

func TestDeferAllNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative DeferAll did not panic")
		}
	}()
	var s Scheduler
	schedule(&s, 1, func(Time) {})
	s.DeferAll(-1)
}

func TestPendingEventsExposesArmedTimers(t *testing.T) {
	var s Scheduler
	a := s.ScheduleArg("a", 3, func(Time, any) {}, "x")
	b := s.ScheduleArg("b", 1, func(Time, any) {}, "y")
	if n := s.PendingLen(); n != 2 {
		t.Fatalf("PendingLen = %d", n)
	}
	if s.Time(a) != 3 || s.Time(b) != 1 {
		t.Fatalf("Time(a), Time(b) = %v, %v, want 3, 1", s.Time(a), s.Time(b))
	}
	var ats []Time
	var args []any
	for at, arg := range s.Pending() {
		ats = append(ats, at)
		args = append(args, arg)
	}
	if len(ats) != 2 || ats[0] != 1 || args[0] != "y" || ats[1] != 3 || args[1] != "x" {
		t.Fatalf("Pending yielded %v/%v, want the heap min (1, y) first", ats, args)
	}
	s.DeferAll(4)
	if s.Time(a) != 7 || s.Time(b) != 5 {
		t.Fatalf("after DeferAll(4): Time(a), Time(b) = %v, %v, want 7, 5", s.Time(a), s.Time(b))
	}
}

func TestTimeOfUnarmedEventPanics(t *testing.T) {
	var s Scheduler
	e := schedule(&s, 1, func(Time) {})
	s.Cancel(e)
	defer func() {
		if recover() == nil {
			t.Fatal("Time of a cancelled event did not panic")
		}
	}()
	s.Time(e)
}

// TestHeapDifferential drives the heap through random schedule/cancel/fire
// interleavings and checks the firing sequence against a sorted reference
// model.
func TestHeapDifferential(t *testing.T) {
	root := rng.New(99)
	for trial := 0; trial < 50; trial++ {
		g := root.Derive(string(rune('A' + trial)))
		var s Scheduler
		type ref struct {
			at  time.Duration
			id  int
			own *Event
		}
		var armed []*ref
		var want, got []int
		nextID := 0
		fire := func(r *ref) func(Time) {
			return func(Time) { got = append(got, r.id) }
		}
		for op := 0; op < 200; op++ {
			switch k := g.Intn(10); {
			case k < 6: // schedule
				r := &ref{at: s.Now() + time.Duration(g.Intn(50)), id: nextID}
				nextID++
				r.own = schedule(&s, r.at-s.Now(), fire(r))
				armed = append(armed, r)
			case k < 8 && len(armed) > 0: // cancel a random armed event
				i := g.Intn(len(armed))
				s.Cancel(armed[i].own)
				armed = append(armed[:i], armed[i+1:]...)
			default: // fire one step
				if s.Step() {
					// pop the model's min (at, then insertion order — armed
					// keeps insertion order for equal times).
					sort.SliceStable(armed, func(a, b int) bool { return armed[a].at < armed[b].at })
					want = append(want, armed[0].id)
					armed = armed[1:]
				}
			}
		}
		s.Run(0)
		sort.SliceStable(armed, func(a, b int) bool { return armed[a].at < armed[b].at })
		for _, r := range armed {
			want = append(want, r.id)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d events, model %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: firing order diverged at %d: got %v want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestSteadyStateScheduleIsAllocationFree is the pooled-kernel acceptance
// test: once warm, a schedule+fire cycle through ScheduleArg performs zero
// heap allocations — no Event, no closure, no payload boxing.
func TestSteadyStateScheduleIsAllocationFree(t *testing.T) {
	var s Scheduler
	type st struct{ n int }
	p := &st{}
	h := func(now Time, arg any) { arg.(*st).n++ }
	for i := 0; i < 64; i++ { // warm the pool and the heap capacity
		s.ScheduleArg("warm", time.Duration(i%8), h, p)
	}
	s.Run(0)
	avg := testing.AllocsPerRun(1000, func() {
		s.ScheduleArg("hot", 3, h, p)
		s.Step()
	})
	if avg != 0 {
		t.Fatalf("steady-state schedule+fire allocates %.2f objects/op, want 0", avg)
	}
}

// --- Queue-choice evaluation benchmarks -------------------------------------
//
// refBinaryHeap is a binary heap over the same value entries, position
// table and branch-free child choice as eventHeap, kept here so the
// four-ary choice stays re-checkable on new hardware:
//
//	go test ./internal/event -run xxx -bench 'BenchmarkHeapKernel' -benchmem
//
// The workload mirrors the simulator's: a standing queue of ~depth armed
// timers (MaxQueueLen tracks the station count) with fire/rearm churn.

type refBinaryHeap eventHeap

func (h *refBinaryHeap) push(x entry) {
	h.items = append(h.items, x)
	h.up(len(h.items)-1, x)
}

func (h *refBinaryHeap) up(i int, x entry) {
	for i > 0 {
		parent := (i - 1) / 2
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

func (h *refBinaryHeap) removeAt(i int) {
	h.pos[h.items[i].slot] = -1
	last := len(h.items) - 1
	x := h.items[last]
	h.items = h.items[:last]
	if i == last {
		return
	}
	if i > 0 && x.before(h.items[(i-1)/2]) {
		h.up(i, x)
		return
	}
	items, n := h.items, last
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n {
			c += beforeBit(items[c+1], items[c])
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

// benchHeapDepth fills a heap with depth entries and then, per iteration,
// fires the earliest and rearms it a random span later with a fresh
// sequence number: one fire-and-rearm of a standing timer.
func benchHeapDepth(b *testing.B, depth int, pos *[]int32, items *[]entry, push func(entry), removeAt func(int)) {
	g := rng.New(5)
	*pos = make([]int32, depth)
	var seq uint64
	for slot := 0; slot < depth; slot++ {
		push(entry{at: time.Duration(g.Intn(1000)), seq: seq, slot: int32(slot)})
		seq++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := (*items)[0]
		removeAt(0)
		x.at += time.Duration(g.Intn(1000))
		x.seq = seq
		seq++
		push(x)
	}
}

var heapDepths = []int{128, 4096, 100_000}

func BenchmarkHeapKernel4ary(b *testing.B) {
	for _, depth := range heapDepths {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var h eventHeap
			benchHeapDepth(b, depth, &h.pos, &h.items, h.push, h.removeAt)
		})
	}
}

func BenchmarkHeapKernelBinary(b *testing.B) {
	for _, depth := range heapDepths {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var h refBinaryHeap
			benchHeapDepth(b, depth, &h.pos, &h.items, h.push, h.removeAt)
		})
	}
}
