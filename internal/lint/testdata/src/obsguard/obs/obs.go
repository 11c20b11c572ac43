// Fixture stand-in for repro/internal/obs: obsguard matches on the symbol
// names, so the bodies here are irrelevant.
package obs

type Span struct{ Name string }

func (s *Span) End() {}

type SpanSink interface{ EmitSpan(Span) }

type JSONLSink struct{}

func (s *JSONLSink) EmitSpan(Span) {}

func NewJSONL(w any) *JSONLSink { return &JSONLSink{} }

func StartSpan(name string) Span { return Span{Name: name} }

type Registry struct{}

type Counter struct{}

func (c *Counter) Inc() {}

func (r *Registry) Counter(name, help string) *Counter { return &Counter{} }
