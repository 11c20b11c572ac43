package event

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
)

// schedule arms fn through ScheduleArg with no payload, for tests that
// only care when things fire.
func schedule(s *Scheduler, delay time.Duration, fn func(Time)) *Event {
	return s.ScheduleArg("", delay, func(now Time, _ any) { fn(now) }, nil)
}

func TestFiresInTimeOrder(t *testing.T) {
	var s Scheduler
	var got []time.Duration
	for _, d := range []time.Duration{30, 10, 20, 10, 40} {
		d := d
		schedule(&s, d, func(now Time) { got = append(got, now) })
	}
	s.Run(0)
	want := []time.Duration{10, 10, 20, 30, 40}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("event %d fired at %v, want %v (order %v)", i, got[i], w, got)
		}
	}
}

func TestFIFOAtEqualTimes(t *testing.T) {
	var s Scheduler
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		schedule(&s, 5, func(Time) { order = append(order, i) })
	}
	s.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events fired out of insertion order: %v", order)
		}
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	var s Scheduler
	fired := false
	e := schedule(&s, 10, func(Time) { fired = true })
	s.Cancel(e)
	s.Run(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if f := s.Stats().Fired; f != 0 {
		t.Fatalf("Stats().Fired = %d, want 0", f)
	}
}

func TestCancelNilAndDouble(t *testing.T) {
	var s Scheduler
	s.Cancel(nil) // must not panic
	e := schedule(&s, 1, func(Time) {})
	s.Cancel(e)
	s.Cancel(e) // double cancel must not panic
	s.Run(0)
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	var s Scheduler
	e := schedule(&s, 1, func(Time) {})
	s.Run(0)
	s.Cancel(e) // must not panic
}

func TestScheduleFromHandler(t *testing.T) {
	var s Scheduler
	var times []time.Duration
	schedule(&s, 10, func(now Time) {
		times = append(times, now)
		schedule(&s, 5, func(now2 Time) { times = append(times, now2) })
	})
	s.Run(0)
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("chained scheduling produced %v", times)
	}
}

func TestZeroDelayFiresAtNow(t *testing.T) {
	var s Scheduler
	schedule(&s, 10, func(now Time) {
		schedule(&s, 0, func(now2 Time) {
			if now2 != now {
				t.Errorf("zero-delay event at %v, want %v", now2, now)
			}
		})
	})
	s.Run(0)
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	var s Scheduler
	schedule(&s, -1, func(Time) {})
}

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	var s Scheduler
	s.ScheduleArg("", 1, nil, nil)
}

func TestRunLimit(t *testing.T) {
	var s Scheduler
	count := 0
	var reschedule func(Time)
	reschedule = func(Time) {
		count++
		schedule(&s, 1, reschedule)
	}
	schedule(&s, 1, reschedule)
	fired, drained := s.Run(100)
	if drained {
		t.Fatal("self-perpetuating schedule reported drained")
	}
	if fired != 100 || count != 100 {
		t.Fatalf("fired %d handlers %d, want 100", fired, count)
	}
}

func TestRunUntil(t *testing.T) {
	var s Scheduler
	var fired []time.Duration
	for _, d := range []time.Duration{5, 10, 15, 20} {
		schedule(&s, d, func(now Time) { fired = append(fired, now) })
	}
	n := s.RunUntil(12)
	if n != 2 {
		t.Fatalf("RunUntil fired %d, want 2", n)
	}
	if s.Now() != 12 {
		t.Fatalf("clock at %v, want 12", s.Now())
	}
	n = s.RunUntil(100)
	if n != 2 {
		t.Fatalf("second RunUntil fired %d, want 2", n)
	}
}

func TestClockMonotonic(t *testing.T) {
	src := rng.New(17)
	err := quick.Check(func(seed uint32) bool {
		g := src.Derive(string(rune(seed)))
		var s Scheduler
		last := Time(-1)
		ok := true
		var spawn func(depth int) func(Time)
		spawn = func(depth int) func(Time) {
			return func(now Time) {
				if now < last {
					ok = false
				}
				last = now
				if depth > 0 {
					schedule(&s, time.Duration(g.Intn(50)), spawn(depth-1))
				}
			}
		}
		for i := 0; i < 20; i++ {
			schedule(&s, time.Duration(g.Intn(100)), spawn(3))
		}
		s.Run(0)
		return ok
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPendingAndMaxQueueLen(t *testing.T) {
	var s Scheduler
	for i := 0; i < 7; i++ {
		schedule(&s, time.Duration(i), func(Time) {})
	}
	if n := s.PendingLen(); n != 7 {
		t.Fatalf("pending = %d", n)
	}
	s.Run(0)
	if n := s.PendingLen(); n != 0 {
		t.Fatalf("pending after drain = %d", n)
	}
	if m := s.Stats().MaxQueueLen; m != 7 {
		t.Fatalf("MaxQueueLen = %d", m)
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	var s Scheduler
	for i := 0; i < b.N; i++ {
		s.ScheduleArg("", time.Duration(i%64), func(Time, any) {}, nil)
		s.Step()
	}
}
