package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value() = %d, want 42", got)
	}
	if c2 := r.Counter("test_total", "help"); c2 != c {
		t.Fatal("re-registering same counter returned a different instance")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge", "")
	g.Add(3.5)
	g.Add(-1.5)
	if got := g.Value(); got != 2 {
		t.Fatalf("Value() = %g, want 2", got)
	}
	g.SetMax(10)
	g.SetMax(5)
	if got := g.Value(); got != 10 {
		t.Fatalf("after SetMax: Value() = %g, want 10", got)
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash did not panic")
		}
	}()
	r.Gauge("x", "")
}

// TestHistogramBucketBoundaries pins which bucket each observation lands
// in, including exact upper-bound hits (le is inclusive) and overflow.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		name   string
		uppers []float64
		obs    []float64
		want   []int64 // per-bucket raw counts, len(uppers)+1 (last = overflow)
		sum    float64
		count  int64
	}{
		{
			name:   "below_first",
			uppers: []float64{1, 2, 4},
			obs:    []float64{0.5, -1},
			want:   []int64{2, 0, 0, 0},
			sum:    -0.5, count: 2,
		},
		{
			name:   "exact_upper_is_inclusive",
			uppers: []float64{1, 2, 4},
			obs:    []float64{1, 2, 4},
			want:   []int64{1, 1, 1, 0},
			sum:    7, count: 3,
		},
		{
			name:   "interior",
			uppers: []float64{1, 2, 4},
			obs:    []float64{1.5, 3, 3.999},
			want:   []int64{0, 1, 2, 0},
			sum:    8.499, count: 3,
		},
		{
			name:   "overflow",
			uppers: []float64{1, 2, 4},
			obs:    []float64{4.0001, 100},
			want:   []int64{0, 0, 0, 2},
			sum:    104.0001, count: 2,
		},
		{
			name:   "single_bucket",
			uppers: []float64{10},
			obs:    []float64{10, 10.5},
			want:   []int64{1, 1},
			sum:    20.5, count: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			h := r.Histogram("h", "", tc.uppers)
			for _, v := range tc.obs {
				h.Observe(v)
			}
			for i, want := range tc.want {
				if got := h.counts[i].Load(); got != want {
					t.Errorf("bucket[%d] = %d, want %d", i, got, want)
				}
			}
			if got := h.Count(); got != tc.count {
				t.Errorf("Count() = %d, want %d", got, tc.count)
			}
			if got := h.Sum(); math.Abs(got-tc.sum) > 1e-9 {
				t.Errorf("Sum() = %g, want %g", got, tc.sum)
			}
		})
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{10, 20, 40})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %g, want 0", got)
	}
	// 10 obs in (0,10], 10 in (10,20].
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	if got := h.Quantile(0.5); got != 10 {
		t.Errorf("p50 = %g, want 10 (end of first bucket)", got)
	}
	if got := h.Quantile(0.75); got != 15 {
		t.Errorf("p75 = %g, want 15 (midpoint of second bucket)", got)
	}
	h.Observe(1000) // overflow
	if got := h.Quantile(0.999); got != 40 {
		t.Errorf("overflow quantile = %g, want 40 (largest finite bound)", got)
	}
}

func TestHistogramBucketValidation(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending buckets did not panic")
		}
	}()
	r.Histogram("bad", "", []float64{1, 1})
}

func TestBucketHelpers(t *testing.T) {
	if got, want := ExpBuckets(1, 4, 4), []float64{1, 4, 16, 64}; !equalF(got, want) {
		t.Errorf("ExpBuckets = %v, want %v", got, want)
	}
}

func equalF(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestExpositionGolden pins the Prometheus text rendering byte-for-byte:
// sorted order, HELP/TYPE placement, label rendering, histogram
// cumulative buckets, counter-func and gauge-func values.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("demo_events_total", "Events processed.")
	c.Add(7)
	r.Counter("demo_requests_total", "Requests by endpoint.", "endpoint", "run").Add(3)
	r.Counter("demo_requests_total", "Requests by endpoint.", "endpoint", "sweep").Add(5)
	r.CounterFunc("demo_hits_total", "Live hit count.", func() int64 { return 11 })
	g := r.Gauge("demo_depth", "Queue depth.")
	g.Add(2.5)
	r.GaugeFunc("demo_goroutines", "Live goroutines.", func() float64 { return 8 })
	h := r.Histogram("demo_latency_seconds", "Request latency.", []float64{0.1, 0.5, 1})
	for _, v := range []float64{0.05, 0.3, 0.3, 0.9, 3} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from golden.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	// A second render must be byte-identical (stable sort, no map order).
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two renders of the same registry differ")
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "").Add(2)
	r.Gauge("a_gauge", "").Add(1.5)
	h := r.Histogram("c_hist", "", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(5)

	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("Snapshot len = %d, want 3", len(snap))
	}
	if snap[0].Name != "a_gauge" || snap[1].Name != "b_total" || snap[2].Name != "c_hist" {
		t.Fatalf("snapshot not sorted: %v %v %v", snap[0].Name, snap[1].Name, snap[2].Name)
	}
	if snap[0].Value != 1.5 || snap[0].Kind != "gauge" {
		t.Errorf("gauge sample = %+v", snap[0])
	}
	if snap[1].Value != 2 || snap[1].Kind != "counter" {
		t.Errorf("counter sample = %+v", snap[1])
	}
	hs := snap[2]
	if hs.Count != 2 || hs.Sum != 5.5 || len(hs.Buckets) != 3 {
		t.Errorf("histogram sample = %+v", hs)
	}
	// Buckets are cumulative: [0.5→1, nothing ≤2 beyond it, +Inf catches 5].
	if hs.Buckets[0].Count != 1 || hs.Buckets[1].Count != 1 || hs.Buckets[2].Count != 2 {
		t.Errorf("cumulative buckets = %+v", hs.Buckets)
	}
	if !math.IsInf(hs.Buckets[2].Upper, 1) {
		t.Errorf("last bucket upper = %g, want +Inf", hs.Buckets[2].Upper)
	}
}

// TestSnapshotJSON: the snapshot must marshal — in particular the
// histogram overflow bucket, whose +Inf bound JSON numbers cannot carry.
func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2.5})
	h.Observe(10)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	for _, want := range []string{`"le":"+Inf","count":1`, `"le":2.5,"count":0`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("snapshot JSON missing %q:\n%s", want, b)
		}
	}
}

// TestConcurrentHammer exercises registration and observation from many
// goroutines at once; run under -race this is the data-race check.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hammer_total", "")
			g := r.Gauge("hammer_gauge", "")
			h := r.Histogram("hammer_hist", "", []float64{1, 10, 100})
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				g.SetMax(float64(i))
				h.Observe(float64(i % 150))
				if i%100 == 0 {
					var buf bytes.Buffer
					if err := r.WritePrometheus(&buf); err != nil {
						t.Errorf("WritePrometheus: %v", err)
					}
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hammer_total", "").Value(); got != workers*1000 {
		t.Errorf("counter = %d, want %d", got, workers*1000)
	}
	if got := r.Histogram("hammer_hist", "", []float64{1, 10, 100}).Count(); got != workers*1000 {
		t.Errorf("histogram count = %d, want %d", got, workers*1000)
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"}, {42, "42"}, {-3, "-3"}, {2.5, "2.5"}, {0.001, "0.001"},
	}
	for _, tc := range cases {
		if got := formatValue(tc.in); got != tc.want {
			t.Errorf("formatValue(%g) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
