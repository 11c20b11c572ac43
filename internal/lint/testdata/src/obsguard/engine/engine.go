// Fixture: the same span APIs are fine outside the simulation packages —
// the engine/harness boundary is exactly where spans belong.
package engine

import "obsguard/obs"

func Observe() {
	sp := obs.StartSpan("cell")
	defer sp.End()
	var sink obs.SpanSink = &obs.JSONLSink{}
	sink.EmitSpan(obs.Span{Name: "cell"})
}
