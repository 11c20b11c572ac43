package mac

import (
	"testing"
	"time"
)

// TestDisjointCollisions pins the interval union behind the paper's
// disjoint-collision count C_A and the collision airtime.
func TestDisjointCollisions(t *testing.T) {
	us := func(start, end int) interval {
		return interval{time.Duration(start) * time.Microsecond, time.Duration(end) * time.Microsecond}
	}
	cases := []struct {
		name    string
		failed  []interval
		count   int
		airtime time.Duration
	}{
		{"empty", nil, 0, 0},
		{"single", []interval{us(10, 50)}, 1, 40 * time.Microsecond},
		{"disjoint unsorted", []interval{us(100, 140), us(0, 40), us(50, 60)}, 3, 90 * time.Microsecond},
		{"overlapping unsorted", []interval{us(30, 70), us(0, 40), us(200, 210), us(60, 90)}, 2, 100 * time.Microsecond},
		{"nested", []interval{us(0, 100), us(20, 30), us(40, 90)}, 1, 100 * time.Microsecond},
		{"nested after a longer start", []interval{us(10, 20), us(0, 100), us(0, 5)}, 1, 100 * time.Microsecond},
		{"touching stay separate", []interval{us(40, 80), us(0, 40)}, 2, 80 * time.Microsecond},
		{"equal starts", []interval{us(0, 40), us(0, 184), us(0, 40)}, 1, 184 * time.Microsecond},
	}
	for _, c := range cases {
		ap := &accessPoint{failed: c.failed}
		count, airtime := ap.disjointCollisions()
		if count != c.count || airtime != c.airtime {
			t.Errorf("%s: %d groups over %v, want %d over %v", c.name, count, airtime, c.count, c.airtime)
		}
	}
}
