package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Attr is one key/value pair attached to a span. Attrs are a slice, not a
// map, so emission order is exactly insertion order — stable output with
// no sorting on the hot path.
type Attr struct {
	Key   string `json:"k"`
	Value any    `json:"v"`
}

// String returns a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int64 returns an integer attribute.
func Int64(key string, value int64) Attr { return Attr{Key: key, Value: value} }

// Bool returns a boolean attribute.
func Bool(key string, value bool) Attr { return Attr{Key: key, Value: value} }

// Span is one completed unit of work with a wall-clock start and
// duration. Spans are values, not handles: build one, fill it, emit it.
// Because they carry wall-clock time they are banned inside the six
// simulation packages (see the obsguard analyzer); measure at the
// engine/harness boundary only.
type Span struct {
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"dur_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
}

// SpanSink receives completed spans. Implementations must be safe for
// concurrent use; EmitSpan should be cheap enough for per-cell frequency.
type SpanSink interface {
	EmitSpan(Span)
}

// JSONLSink writes one JSON object per span, newline-delimited, to an
// io.Writer. It is safe for concurrent use. The first write or encode
// error is retained (and later writes skipped); Close returns it, after
// closing the writer if that is an io.Closer.
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	enc *json.Encoder
	err error
}

// NewJSONL returns a sink writing NDJSON spans to w.
func NewJSONL(w io.Writer) *JSONLSink {
	return &JSONLSink{w: w, enc: json.NewEncoder(w)}
}

// EmitSpan implements SpanSink.
func (s *JSONLSink) EmitSpan(sp Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(spanWire{
		Name:  sp.Name,
		Start: sp.Start.UnixNano(),
		DurNs: sp.Duration.Nanoseconds(),
		Attrs: sp.Attrs,
	})
}

// Close closes the underlying writer when it is an io.Closer and returns
// the first error seen (write or close).
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.w.(io.Closer); ok {
		if err := c.Close(); err != nil && s.err == nil {
			s.err = err
		}
	}
	return s.err
}

// spanWire is the NDJSON record shape: numeric timestamps so the log is
// trivially parseable by jq/awk without time-format negotiation.
type spanWire struct {
	Name  string `json:"name"`
	Start int64  `json:"start_unix_ns"`
	DurNs int64  `json:"dur_ns"`
	Attrs []Attr `json:"attrs,omitempty"`
}
