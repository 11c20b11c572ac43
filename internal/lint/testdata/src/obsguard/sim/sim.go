// Fixture: obsguard — wall-clock span APIs are banned inside a package
// the -obsguard.pkgs flag names as a simulation package.
package sim

import "obsguard/obs"

func spans() {
	sp := obs.StartSpan("slot") // want "obsguard"
	defer sp.End()
	var sink obs.SpanSink = &obs.JSONLSink{} // want "obsguard" "obsguard"
	sink.EmitSpan(obs.Span{})                // want "obsguard"
	_ = obs.NewJSONL(nil)                    // want "obsguard"
}

// The metrics half of obs is deterministic and allowed anywhere.
func okCounters(r *obs.Registry) {
	r.Counter("events_total", "").Inc()
}

func okSuppressed() {
	//replint:allow obsguard — fixture demonstrates sanctioned suppression
	sp := obs.StartSpan("sanctioned")
	sp.End()
}
