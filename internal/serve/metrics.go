package serve

// The serving layer's metrics, all behind one obs.Registry:
//
//   - per-endpoint HTTP counters and a latency histogram (this file) —
//     the successor of the old hand-rolled 512-sample latency ring;
//   - engine / kernel / Tx-pool families fed by the repro.Observer hook
//     (observer.go);
//   - store, admission, and Go-runtime families registered as live
//     CounterFunc/GaugeFunc series that read their owners at scrape time
//     (serve.go).
//
// /metrics renders the registry in Prometheus text format and /v1/stats
// serves the same registry as a JSON snapshot, so the two exposition paths
// can never disagree.

import (
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// latencyBucketsMS is the request-latency histogram's upper bounds in
// milliseconds: 0.25 ms .. ~8.4 s, doubling. Wide enough for a cold
// 10^5-cell sweep, fine enough to separate warm replays from simulations.
var latencyBucketsMS = obs.ExpBuckets(0.25, 2, 16)

type metrics struct {
	reg *obs.Registry

	mu        sync.Mutex
	endpoints map[string]*endpointSeries
}

// endpointSeries caches one endpoint's collectors so the per-request path
// does not re-enter the registry.
type endpointSeries struct {
	count   *obs.Counter
	errors  *obs.Counter
	latency *obs.Histogram
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{reg: reg, endpoints: make(map[string]*endpointSeries)}
}

// endpoint returns (registering on first use) the collectors for name.
func (m *metrics) endpoint(name string) *endpointSeries {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.endpoints[name]
	if e == nil {
		e = &endpointSeries{
			count: m.reg.Counter("contend_requests_total",
				"HTTP requests by endpoint.", "endpoint", name),
			errors: m.reg.Counter("contend_request_errors_total",
				"Failed HTTP requests by endpoint.", "endpoint", name),
			latency: m.reg.Histogram("contend_request_latency_ms",
				"HTTP request latency in milliseconds.", latencyBucketsMS, "endpoint", name),
		}
		m.endpoints[name] = e
	}
	return e
}

// observe records one completed request.
func (m *metrics) observe(name string, d time.Duration, failed bool) {
	e := m.endpoint(name)
	e.count.Inc()
	if failed {
		e.errors.Inc()
	}
	e.latency.Observe(float64(d) / float64(time.Millisecond))
}

// snapshot returns the /v1/stats endpoint rows sorted by name, so the
// rendered output is deterministic for a given traffic history. Quantiles
// are bucket-interpolated estimates in milliseconds over the whole uptime;
// the full histogram is in the registry too.
func (m *metrics) snapshot() []endpointWire {
	m.mu.Lock()
	names := make([]string, 0, len(m.endpoints))
	for name := range m.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	series := make([]*endpointSeries, len(names))
	for i, name := range names {
		series[i] = m.endpoints[name]
	}
	m.mu.Unlock()

	out := make([]endpointWire, 0, len(names))
	for i, name := range names {
		e := series[i]
		out = append(out, endpointWire{Name: name, Count: e.count.Value(), Errors: e.errors.Value(),
			P50MS: e.latency.Quantile(0.50), P99MS: e.latency.Quantile(0.99)})
	}
	return out
}
