// Package obs is the unified observability core: a stdlib-only metrics
// registry (atomic counters, gauges, fixed-bucket histograms) with
// stable-sorted exposition in Prometheus text format and as a JSON
// snapshot, plus a lightweight span type emitted as NDJSON through a
// pluggable sink (span.go).
//
// The package is deliberately dependency-free and import-cycle-safe: the
// engine, store, serving layer, and cmds all hang their instrumentation
// off one Registry without the simulator ever importing anything that
// reads a wall clock.
//
// # Determinism boundary
//
// The six simulation packages (mac, phy, event, backoff, traffic,
// slotted) must stay pure functions of (scenario, seed), so they may not
// use the span APIs or any other wall-clock path — spans carry wall-clock
// start times and durations by design, measured at the engine/harness
// boundary only. Deterministic work counters (events fired, slots
// skipped, pool recycles) are fine anywhere: they are a pure function of
// the run. The obsguard analyzer in internal/lint enforces the split.
//
// # Concurrency and cost
//
// Every collector is safe for concurrent use: counters and gauges are
// single atomics, histogram observation is one atomic add per bucket plus
// a CAS loop for the sum. Registration takes a mutex and should happen at
// setup time; hot paths only touch collectors they already hold. Nothing
// here allocates after registration.
package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// --- Collectors -------------------------------------------------------------

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Add increases the counter by delta (negative deltas panic: counters are
// monotonic by contract; use a Gauge for values that move both ways).
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic(fmt.Sprintf("obs: Counter.Add(%d): counters are monotonic", delta))
	}
	c.v.Add(delta)
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down. It stores float64 bits in one
// atomic word.
type Gauge struct {
	bits atomic.Uint64
}

// Add shifts the gauge by delta (CAS loop; safe for concurrent adders).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// SetMax raises the gauge to v if v is larger — the concurrent high-water
// mark update (kernel heap depth, peak overlap).
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: observation counts per upper
// bound plus a running sum. Buckets are immutable after construction, so
// Observe is lock-free.
type Histogram struct {
	uppers []float64      // ascending finite upper bounds; +Inf is implicit
	counts []atomic.Int64 // len(uppers)+1, last is the overflow bucket
	sum    Gauge          // float sum via the gauge's CAS add
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.uppers, v) // first bucket with upper >= v
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket counts
// by linear interpolation inside the containing bucket. The estimate is a
// deterministic function of the counts; values in the overflow bucket
// report the largest finite upper bound. With no observations it returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	lower := 0.0
	for i, upper := range h.uppers {
		c := h.counts[i].Load()
		if float64(cum)+float64(c) >= rank && c > 0 {
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lower + (upper-lower)*frac
		}
		cum += c
		lower = upper
	}
	if len(h.uppers) == 0 {
		return 0
	}
	return h.uppers[len(h.uppers)-1]
}

// ExpBuckets returns n upper bounds start, start*factor, start*factor², ...
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// --- Registry ---------------------------------------------------------------

// Label is one key=value pair attached to a series.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// kind enumerates collector types.
type kind int

const (
	counterKind kind = iota
	counterFuncKind
	gaugeKind
	gaugeFuncKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind, counterFuncKind:
		return "counter"
	case histogramKind:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one registered time series.
type series struct {
	name   string
	help   string
	labels []Label
	id     string // name + canonical label rendering, the uniqueness key
	kind   kind

	c  *Counter
	g  *Gauge
	cf func() int64
	gf func() float64
	h  *Histogram
}

// Registry holds named series and renders them in stable sorted order.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*series)}
}

// labelPairs converts alternating key, value strings into sorted Labels;
// odd arities panic at registration time, where the mistake is visible.
func labelPairs(kv []string) []Label {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", kv))
	}
	out := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		out = append(out, Label{Key: kv[i], Value: kv[i+1]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// renderLabels returns the canonical {k="v",...} rendering, or "".
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// register adds (or retrieves) the series with this identity. Re-registering
// the same (name, labels) returns the existing series only if the kind
// matches; a kind clash panics — it is always a programming error. A new
// series gets its value from init while r.mu is held, so concurrent
// registrations of one identity all see the same value and exposition
// never reads a series before its value is set.
func (r *Registry) register(name, help string, k kind, labels []string, init func(*series)) *series {
	ls := labelPairs(labels)
	id := name + renderLabels(ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[id]; ok {
		if s.kind != k {
			panic(fmt.Sprintf("obs: series %s re-registered as %s (was %s)", id, k, s.kind))
		}
		return s
	}
	s := &series{name: name, help: help, labels: ls, id: id, kind: k}
	init(s)
	r.series[id] = s
	return s
}

// Counter registers (or retrieves) a counter series. Labels are
// alternating key, value strings.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.register(name, help, counterKind, labels, func(s *series) { s.c = &Counter{} }).c
}

// CounterFunc registers a counter whose value is read from f at exposition
// time — for cumulative counts owned elsewhere (store hits, sims total).
// f must be safe for concurrent use and monotonic. Re-registering an
// existing series keeps its first f.
func (r *Registry) CounterFunc(name, help string, f func() int64, labels ...string) {
	r.register(name, help, counterFuncKind, labels, func(s *series) { s.cf = f })
}

// Gauge registers (or retrieves) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.register(name, help, gaugeKind, labels, func(s *series) { s.g = &Gauge{} }).g
}

// GaugeFunc registers a gauge whose value is read from f at exposition
// time — for live values owned elsewhere (goroutines, heap bytes,
// in-flight simulations). f must be safe for concurrent use.
// Re-registering an existing series keeps its first f.
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...string) {
	r.register(name, help, gaugeFuncKind, labels, func(s *series) { s.gf = f })
}

// Histogram registers (or retrieves) a histogram series with the given
// ascending finite bucket upper bounds (+Inf is implicit). Re-registering
// with different buckets panics.
func (r *Registry) Histogram(name, help string, uppers []float64, labels ...string) *Histogram {
	for i := 1; i < len(uppers); i++ {
		if uppers[i] <= uppers[i-1] {
			panic(fmt.Sprintf("obs: histogram %s buckets not ascending: %v", name, uppers))
		}
	}
	h := r.register(name, help, histogramKind, labels, func(s *series) {
		s.h = &Histogram{
			uppers: append([]float64(nil), uppers...),
			counts: make([]atomic.Int64, len(uppers)+1),
		}
	}).h
	if !slices.Equal(h.uppers, uppers) {
		panic(fmt.Sprintf("obs: histogram %s re-registered with different buckets", name))
	}
	return h
}

// sorted returns the series in stable (name, labels) order.
func (r *Registry) sorted() []*series {
	r.mu.Lock()
	out := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// --- Prometheus text exposition ---------------------------------------------

// formatValue renders a sample value the way Prometheus text format
// expects: integers without exponent, floats via %g.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every series in Prometheus text exposition
// format (version 0.0.4), stable-sorted by (name, labels) so equal
// registries render byte-identically. HELP and TYPE headers are emitted
// once per metric name, before its first sample.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	lastName := ""
	for _, s := range r.sorted() {
		if s.name != lastName {
			if s.help != "" {
				p("# HELP %s %s\n", s.name, s.help)
			}
			p("# TYPE %s %s\n", s.name, s.kind)
			lastName = s.name
		}
		lv := renderLabels(s.labels)
		switch s.kind {
		case counterKind:
			p("%s%s %d\n", s.name, lv, s.c.Value())
		case counterFuncKind:
			p("%s%s %d\n", s.name, lv, s.cf())
		case gaugeKind:
			p("%s%s %s\n", s.name, lv, formatValue(s.g.Value()))
		case gaugeFuncKind:
			p("%s%s %s\n", s.name, lv, formatValue(s.gf()))
		case histogramKind:
			var cum int64
			for i, upper := range s.h.uppers {
				cum += s.h.counts[i].Load()
				p("%s_bucket%s %d\n", s.name, bucketLabels(s.labels, formatValue(upper)), cum)
			}
			cum += s.h.counts[len(s.h.uppers)].Load()
			p("%s_bucket%s %d\n", s.name, bucketLabels(s.labels, "+Inf"), cum)
			p("%s_sum%s %s\n", s.name, lv, formatValue(s.h.Sum()))
			p("%s_count%s %d\n", s.name, lv, cum)
		}
	}
	return err
}

// bucketLabels renders the series labels with le appended.
func bucketLabels(labels []Label, le string) string {
	var b strings.Builder
	b.WriteByte('{')
	for _, l := range labels {
		fmt.Fprintf(&b, "%s=%q,", l.Key, l.Value)
	}
	fmt.Fprintf(&b, "le=%q}", le)
	return b.String()
}

// --- JSON snapshot ----------------------------------------------------------

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	Upper float64 `json:"le"`
	Count int64   `json:"count"`
}

// MarshalJSON renders the overflow bucket's +Inf bound as the string
// "+Inf" — JSON numbers cannot carry infinities, and encoding/json would
// otherwise fail the whole snapshot.
func (b Bucket) MarshalJSON() ([]byte, error) {
	if math.IsInf(b.Upper, 1) {
		return fmt.Appendf(nil, `{"le":"+Inf","count":%d}`, b.Count), nil
	}
	return fmt.Appendf(nil, `{"le":%s,"count":%d}`, formatValue(b.Upper), b.Count), nil
}

// Sample is one series in a snapshot. Value is set for counters and
// gauges; Count, Sum, and Buckets for histograms.
type Sample struct {
	Name    string   `json:"name"`
	Kind    string   `json:"kind"`
	Labels  []Label  `json:"labels,omitempty"`
	Value   float64  `json:"value,omitempty"`
	Count   int64    `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot returns every series as a Sample, stable-sorted by (name,
// labels) — the JSON counterpart of WritePrometheus, served by /v1/stats.
func (r *Registry) Snapshot() []Sample {
	sorted := r.sorted()
	out := make([]Sample, 0, len(sorted))
	for _, s := range sorted {
		smp := Sample{Name: s.name, Kind: s.kind.String(), Labels: s.labels}
		switch s.kind {
		case counterKind:
			smp.Value = float64(s.c.Value())
		case counterFuncKind:
			smp.Value = float64(s.cf())
		case gaugeKind:
			smp.Value = s.g.Value()
		case gaugeFuncKind:
			smp.Value = s.gf()
		case histogramKind:
			var cum int64
			for i, upper := range s.h.uppers {
				cum += s.h.counts[i].Load()
				smp.Buckets = append(smp.Buckets, Bucket{Upper: upper, Count: cum})
			}
			cum += s.h.counts[len(s.h.uppers)].Load()
			smp.Buckets = append(smp.Buckets, Bucket{Upper: math.Inf(1), Count: cum})
			smp.Count = cum
			smp.Sum = s.h.Sum()
		}
		out = append(out, smp)
	}
	return out
}
