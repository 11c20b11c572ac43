package main

// Spans for the traced run. The benchmark records them from its own code,
// around its calls into each layer (plus the cell spans the engine and the
// serving layer already emit through their public hooks). Spans stay in
// memory and are written as NDJSON when the run ends, so recording costs a
// mutex and an append, not I/O.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed call. Start is relative to the tracer's origin.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
	Self   time.Duration `json:"self_ns"`
}

// tracer collects spans. A nil *tracer records nothing, which is how the
// untraced run skips it.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// record adds a finished span and returns its id (0 on a nil tracer).
func (t *tracer) record(parent int64, name string, start time.Time, dur time.Duration) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start.Sub(t.origin), Dur: dur})
	return id
}

// begin opens a span that end closes; its id can parent spans recorded
// in between.
func (t *tracer) begin(parent int64, name string) int64 {
	return t.record(parent, name, time.Now(), 0)
}

// end closes a span opened by begin.
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.Dur = now.Sub(t.origin) - s.Start
}

// setSpan sets the times of a span opened by begin, for spans whose
// times are only known afterwards.
func (t *tracer) setSpan(id int64, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Start, t.spans[id-1].Dur = start.Sub(t.origin), dur
}

// timed runs f inside a span and returns the span's duration.
func (t *tracer) timed(parent int64, name string, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	t.record(parent, name, start, d)
	return d
}

// spanSink adapts the tracer to obs.SpanSink, so the serving layer's cell
// spans land in the same tree under parent, and keeps the spans themselves
// for the per-layer metrics.
type spanSink struct {
	t      *tracer
	parent int64
	mu     sync.Mutex
	cells  []obs.Span
}

func (s *spanSink) EmitSpan(sp obs.Span) {
	s.t.record(s.parent, "engine."+sp.Name, sp.Start, sp.Duration)
	s.mu.Lock()
	s.cells = append(s.cells, sp)
	s.mu.Unlock()
}

// attrInt returns an integer attribute of an obs span (0 when absent).
func attrInt(sp obs.Span, key string) int64 {
	for _, a := range sp.Attrs {
		if a.Key == key {
			if v, ok := a.Value.(int64); ok {
				return v
			}
		}
	}
	return 0
}

// attrBool returns a boolean attribute of an obs span.
func attrBool(sp obs.Span, key string) bool {
	for _, a := range sp.Attrs {
		if a.Key == key {
			v, _ := a.Value.(bool)
			return v
		}
	}
	return false
}

// attrString returns a string attribute of an obs span.
func attrString(sp obs.Span, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			v, _ := a.Value.(string)
			return v
		}
	}
	return ""
}

// selfTimes fills every span's Self: its duration minus the part of its
// interval that its children cover (overlapping children count once).
func selfTimes(spans []span) {
	kids := make(map[int64][]int, len(spans))
	for i, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], i)
	}
	for i := range spans {
		s := &spans[i]
		ivs := make([][2]time.Duration, 0, len(kids[s.ID]))
		for _, k := range kids[s.ID] {
			c := spans[k]
			lo, hi := max(c.Start, s.Start), min(c.Start+c.Dur, s.Start+s.Dur)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, end time.Duration
		for _, iv := range ivs {
			lo := max(iv[0], end)
			if iv[1] > lo {
				covered += iv[1] - lo
			}
			end = max(end, iv[1])
		}
		s.Self = s.Dur - covered
	}
}

// writeSpans computes self times and writes every span as one JSON line,
// then a per-name self-time summary to summary.
func (t *tracer) writeSpans(path string, summary io.Writer) (err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	selfTimes(t.spans)

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type total struct {
		name      string
		n         int
		self, all time.Duration
	}
	byName := map[string]*total{}
	var names []string
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
		tot := byName[s.Name]
		if tot == nil {
			tot = &total{name: s.Name}
			byName[s.Name] = tot
			names = append(names, s.Name)
		}
		tot.n++
		tot.self += s.Self
		tot.all += s.Dur
	}
	if err := w.Flush(); err != nil {
		return err
	}
	sort.Strings(names)
	fmt.Fprintf(summary, "spans: %d written to %s\n", len(t.spans), path)
	for _, name := range names {
		tot := byName[name]
		fmt.Fprintf(summary, "  %-22s n=%-7d total=%10.1fms self=%10.1fms\n",
			tot.name, tot.n, tot.all.Seconds()*1e3, tot.self.Seconds()*1e3)
	}
	return nil
}
