// Package serve exposes the simulator over HTTP/JSON: contention resolution
// as a service. It is pure composition of the public repro API — the strict
// wire codec (repro.ScenarioSpec), the content-addressed Store with its
// singleflight path, and Engine grids over the shared worker pool — plus
// the admission and observability machinery a real service needs.
//
// Endpoints:
//
//	POST /v1/run        one (scenario, seed) cell; cache-backed, singleflight
//	POST /v1/sweep      scenario grid × seeds, streamed as NDJSON cells in
//	                    Engine.Sweep's stable order; store hits are spliced
//	                    from the stored bytes, never decoded
//	POST /v1/aggregate  grid × seeds × metric names → Report JSON
//	GET  /v1/stats      store hit rate, in-flight simulations, per-endpoint
//	                    request counts and latency quantiles (JSON)
//	GET  /metrics       the same counters in Prometheus text format
//
// Admission: a global in-flight simulation budget (Config.MaxSims) gates
// simulator invocations through Engine.Admit — cache hits and singleflight
// followers spend nothing, so warm traffic is never throttled — and a
// per-client concurrent-request limit (Config.PerClient) rejects floods
// with 429 before any work starts. Client disconnects cancel the request
// context, which stops the underlying sweep at the next cell boundary:
// abandoned requests stop simulating.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/internal/obs"
)

// maxBodyBytes bounds request bodies; grids are index-sized (a thousand
// scenarios is ~100 KB), so 8 MB is generous without inviting abuse.
const maxBodyBytes = 8 << 20

// Config parameterizes a Server.
type Config struct {
	// Store, when non-nil, backs every cell with the content-addressed
	// result cache (replay hits, write misses through, collapse duplicate
	// in-flight cells). A nil Store serves uncached.
	Store *repro.Store
	// Workers caps each request's sweep parallelism (0 = GOMAXPROCS).
	Workers int
	// MaxSims is the global in-flight simulation budget across all
	// requests; 0 means unlimited. Cells past the budget wait (honoring
	// request cancellation), they are not rejected.
	MaxSims int
	// PerClient caps concurrent requests per client (X-Client header, or
	// the remote address); 0 means unlimited. Excess requests get 429.
	PerClient int
	// MaxCells caps the grid size (scenarios × seeds) of one sweep or
	// aggregate request; 0 means unlimited. Oversized grids get 413.
	MaxCells int
	// Pprof, when true, mounts net/http/pprof's profiling handlers under
	// /debug/pprof/ on the server's own mux. Off by default: profiling
	// endpoints expose internals and cost CPU, so they are opt-in
	// (cmd/serve -pprof).
	Pprof bool
	// Spans, when non-nil, receives one lifecycle span per completed grid
	// cell (admit wait, hit/miss, simulate and write-through durations);
	// cmd/serve -span-log wires an obs.JSONLSink here.
	Spans obs.SpanSink
}

// Server is the HTTP serving layer over one Engine + Store.
type Server struct {
	cfg Config
	eng *repro.Engine
	adm *admission
	reg *obs.Registry
	met *metrics
	mux *http.ServeMux
}

// New builds a Server; its Handler serves the endpoints above.
func New(cfg Config) *Server {
	reg := obs.NewRegistry()
	s := &Server{
		cfg: cfg,
		adm: newAdmission(cfg.MaxSims, cfg.PerClient),
		reg: reg,
		met: newMetrics(reg),
	}
	s.eng = &repro.Engine{
		Workers:  cfg.Workers,
		Store:    cfg.Store,
		Admit:    s.adm.admitSim,
		Observer: newEngineObserver(reg, cfg.Spans),
	}
	s.registerLiveMetrics()
	s.mux = http.NewServeMux()
	s.mux.Handle("POST /v1/run", s.endpoint("run", s.handleRun))
	s.mux.Handle("POST /v1/sweep", s.endpoint("sweep", s.handleSweep))
	s.mux.Handle("POST /v1/aggregate", s.endpoint("aggregate", s.handleAggregate))
	s.mux.Handle("GET /v1/stats", s.endpoint("stats", s.handleStats))
	s.mux.Handle("GET /metrics", s.endpoint("metrics", s.handleMetrics))
	if cfg.Pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// registerLiveMetrics adds the store, admission, and Go-runtime families
// as CounterFunc/GaugeFunc series that read their owners at scrape time —
// the counters keep living where they always lived (Store atomics,
// admission atomics, the runtime), the registry just exposes them.
func (s *Server) registerLiveMetrics() {
	if st := s.cfg.Store; st != nil {
		s.reg.GaugeFunc("contend_store_records",
			"Live records in the result store.",
			func() float64 { return float64(st.Stats().Records) })
		s.reg.GaugeFunc("contend_store_bytes",
			"Result store log size in bytes.",
			func() float64 { return float64(st.Stats().Bytes) })
		s.reg.CounterFunc("contend_store_hits_total",
			"Cells served from the store (replays and in-flight joins).",
			func() int64 { return st.Stats().Hits })
		s.reg.CounterFunc("contend_store_misses_total",
			"Cells the store had to simulate.",
			func() int64 { return st.Stats().Misses })
		s.reg.CounterFunc("contend_store_puts_total",
			"Successful record writes to the store.",
			func() int64 { return st.Stats().Puts })
		s.reg.GaugeFunc("contend_store_inflight",
			"Cells currently simulating through the store.",
			func() float64 { return float64(st.Stats().InFlight) })
		s.reg.GaugeFunc("contend_store_hit_rate",
			"Fraction of served cells that were store hits.",
			func() float64 {
				sst := st.Stats()
				if served := sst.Hits + sst.Misses; served > 0 {
					return float64(sst.Hits) / float64(served)
				}
				return 0
			})
	}
	s.reg.GaugeFunc("contend_sims_inflight",
		"Simulations running right now.",
		func() float64 { return float64(s.adm.inFlight.Load()) })
	s.reg.CounterFunc("contend_sims_total",
		"Simulator invocations since startup.",
		func() int64 { return s.adm.total.Load() })
	if s.cfg.MaxSims > 0 {
		s.reg.GaugeFunc("contend_sims_budget",
			"Global in-flight simulation budget (MaxSims).",
			func() float64 { return float64(s.cfg.MaxSims) })
	}
	s.reg.GaugeFunc("contend_runtime_goroutines",
		"Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	s.reg.GaugeFunc("contend_runtime_heap_alloc_bytes",
		"Bytes of allocated heap objects.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	s.reg.CounterFunc("contend_runtime_gc_cycles_total",
		"Completed GC cycles.",
		func() int64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return int64(ms.NumGC)
		})
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// clientID identifies the requesting client for per-client admission: the
// X-Client header when set (load generators and SDKs set it), otherwise the
// remote host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// endpoint wraps a handler with per-client admission and request metrics.
// Handlers write their own responses and return a non-nil error only to
// count the request as failed.
func (s *Server) endpoint(name string, h func(http.ResponseWriter, *http.Request) error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		client := clientID(r)
		if !s.adm.enterClient(client) {
			s.met.observe(name, time.Since(start), true)
			writeError(w, http.StatusTooManyRequests,
				fmt.Errorf("client %q exceeds the per-client concurrency limit (%d)", client, s.cfg.PerClient))
			return
		}
		err := h(w, r)
		s.adm.leaveClient(client)
		s.met.observe(name, time.Since(start), err != nil)
	})
}

// writeError emits the uniform JSON error body.
func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{err.Error()})
}

// writeJSON emits one JSON response value.
func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(v)
}

// decodeJSON strictly decodes one bounded JSON request body: unknown fields
// (at any nesting level, ScenarioSpecs included) and trailing data are
// errors, matching repro.DecodeScenarioSpec's contract.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// scenarios resolves a request's specs into validated Scenarios, labelling
// failures with their index.
func scenarios(specs []repro.ScenarioSpec) ([]repro.Scenario, error) {
	if len(specs) == 0 {
		return nil, errors.New("request needs at least one scenario")
	}
	out := make([]repro.Scenario, len(specs))
	for i, sp := range specs {
		s, err := sp.Scenario()
		if err != nil {
			return nil, fmt.Errorf("scenarios[%d]: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}

// checkGrid rejects a grid without seeds (400) and one over the
// per-request cell cap (413), returning the status to answer with.
func (s *Server) checkGrid(nScenarios, trials int) (int, error) {
	if trials == 0 {
		return http.StatusBadRequest, errors.New("request needs at least one seed")
	}
	if cells := nScenarios * trials; s.cfg.MaxCells > 0 && cells > s.cfg.MaxCells {
		return http.StatusRequestEntityTooLarge, fmt.Errorf("grid has %d cells, over the per-request limit of %d", cells, s.cfg.MaxCells)
	}
	return 0, nil
}

// --- POST /v1/run -----------------------------------------------------------

type runRequest struct {
	Scenario repro.ScenarioSpec `json:"scenario"`
	Seed     uint64             `json:"seed"`
}

type runResponse struct {
	// Fingerprint is the scenario's content address — the cache key the
	// result is stored under; omitted for uncacheable scenarios.
	Fingerprint string        `json:"fingerprint,omitempty"`
	Seed        uint64        `json:"seed"`
	Result      *repro.Result `json:"result"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) error {
	var req runRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return err
	}
	sc, err := req.Scenario.Scenario()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return err
	}
	// RunMany of one scenario is the cache-backed singleflight path (a
	// direct Engine.Run would bypass the store).
	results, err := s.eng.RunMany(r.Context(), []repro.Scenario{sc.WithOptions(repro.WithSeed(req.Seed))})
	if err != nil {
		if r.Context().Err() != nil {
			return err // client gone; nothing to write
		}
		// A valid scenario whose simulation gave up is not a malformed
		// request: the scenario is well formed but cannot be resolved.
		status := http.StatusBadRequest
		if errors.Is(err, repro.ErrNoProgress) {
			status = http.StatusUnprocessableEntity
		}
		writeError(w, status, err)
		return err
	}
	fp, _ := sc.Fingerprint()
	return writeJSON(w, runResponse{Fingerprint: fp, Seed: req.Seed, Result: &results[0]})
}

// --- POST /v1/sweep ---------------------------------------------------------

type sweepRequest struct {
	Scenarios []repro.ScenarioSpec `json:"scenarios"`
	Seeds     []uint64             `json:"seeds"`
}

// EncodeCell renders one sweep cell as its NDJSON line (trailing newline
// included): the cell's grid position and seed, then its error or its
// Result — json.Marshal(Result), Go field names, schema-versioned by the
// fingerprint's "v1". A cell carrying Cell.JSON (Engine.SweepJSON) splices
// those stored bytes, which are exactly that encoding, unparsed. Equal
// cells encode to equal bytes, so a warm sweep response is byte-identical
// to the cold one that populated the store, and to a direct Engine.Sweep
// encoded the same way.
func EncodeCell(c repro.Cell) ([]byte, error) { return appendCell(nil, c) }

// appendCell appends c's NDJSON line to dst; see EncodeCell.
func appendCell(dst []byte, c repro.Cell) ([]byte, error) {
	dst = append(dst, `{"scenario":`...)
	dst = strconv.AppendInt(dst, int64(c.ScenarioIndex), 10)
	dst = append(dst, `,"trial":`...)
	dst = strconv.AppendInt(dst, int64(c.SeedIndex), 10)
	dst = append(dst, `,"seed":`...)
	dst = strconv.AppendUint(dst, c.Seed, 10)
	switch {
	case c.Err != nil:
		b, _ := json.Marshal(c.Err.Error()) // a string always marshals, HTML-escaped
		dst = append(append(dst, `,"error":`...), b...)
	case c.JSON != nil:
		dst = append(append(dst, `,"result":`...), c.JSON...)
	default:
		b, err := json.Marshal(c.Result)
		if err != nil {
			return dst, err
		}
		dst = append(append(dst, `,"result":`...), b...)
	}
	return append(dst, "}\n"...), nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) error {
	var req sweepRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return err
	}
	grid, err := scenarios(req.Scenarios)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return err
	}
	if code, err := s.checkGrid(len(grid), len(req.Seeds)); err != nil {
		writeError(w, code, err)
		return err
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// r.Context() is cancelled when the client disconnects; the sweep then
	// stops at the next cell boundary and its channel closes early — an
	// abandoned request stops simulating instead of running the grid out.
	if err := streamCells(w, s.eng.SweepJSON(r.Context(), grid, req.Seeds)); err != nil {
		return err
	}
	return r.Context().Err()
}

// A sweep response gathers encoded cells and sends them together once
// sendBytes have gathered or sendDelay after the first of them, whichever
// comes first. Warm cells arrive in a burst, and sent one write per cell
// they stall the client: on loopback its receive window then waits out a
// 40 ms delayed ACK every few dozen requests, which batched writes do not
// provoke. A cold cell still streams within sendDelay of completing, and a
// response never holds more than about sendBytes plus one cell.
const (
	sendBytes = 256 << 10
	sendDelay = time.Millisecond
)

// sendBufs recycles batch buffers across responses: sized for a full batch
// plus its last cell, a buffer is allocated once per concurrent response
// instead of regrown cell by cell on every request.
var sendBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, sendBytes+sendBytes/4)
	return &b
}}

// streamCells writes cells to w as NDJSON lines, in order, flushing each
// batch. Store-served cells arrive as their stored bytes and are spliced
// into the batch buffer.
func streamCells(w http.ResponseWriter, cells <-chan repro.Cell) error {
	fl, _ := w.(http.Flusher)
	bp := sendBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	defer func() {
		if cap(buf) <= 2*sendBytes { // a rare outsized cell is not kept
			*bp = buf[:0]
			sendBufs.Put(bp)
		}
	}()
	send := func() error {
		if len(buf) == 0 {
			return nil
		}
		_, err := w.Write(buf)
		buf = buf[:0]
		if err == nil && fl != nil {
			fl.Flush()
		}
		return err
	}
	timer := time.NewTimer(sendDelay)
	timer.Stop()
	defer timer.Stop()
	for {
		select {
		case cell, ok := <-cells:
			if !ok {
				return send()
			}
			first := len(buf) == 0
			var err error
			if buf, err = appendCell(buf, cell); err != nil {
				return err
			}
			if len(buf) >= sendBytes {
				timer.Stop()
				if err := send(); err != nil {
					return err
				}
			} else if first {
				timer.Reset(sendDelay)
			}
		case <-timer.C:
			if err := send(); err != nil {
				return err
			}
		}
	}
}

// --- POST /v1/aggregate -----------------------------------------------------

type aggregateRequest struct {
	Scenarios []repro.ScenarioSpec `json:"scenarios"`
	Seeds     []uint64             `json:"seeds"`
	// Metrics names the report columns; see repro.MetricNames.
	Metrics []string `json:"metrics"`
}

type reportWire struct {
	Metrics []string        `json:"metrics"`
	Rows    []reportRowWire `json:"rows"`
}

type reportRowWire struct {
	Scenario  string        `json:"scenario"`
	N         int           `json:"n"`
	Failed    int           `json:"failed,omitempty"`
	Error     string        `json:"error,omitempty"`
	Summaries []summaryWire `json:"summaries"`
}

type summaryWire struct {
	Median   any `json:"median"`
	CILo     any `json:"ci_lo"`
	CIHi     any `json:"ci_hi"`
	Mean     any `json:"mean"`
	Trials   int `json:"trials"`
	Outliers int `json:"outliers"`
}

// wireFloat maps NaN and infinities to null, which JSON cannot carry as
// numbers; a not-applicable metric stays visibly null instead of failing
// the whole response.
func wireFloat(v float64) any {
	if v != v || v > 1.7976931348623157e308 || v < -1.7976931348623157e308 {
		return nil
	}
	return v
}

// EncodeReport renders an aggregated report as its wire form.
func EncodeReport(rep *repro.Report) reportWire {
	out := reportWire{Metrics: rep.Metrics, Rows: make([]reportRowWire, 0, len(rep.Rows))}
	if out.Metrics == nil {
		out.Metrics = []string{}
	}
	for _, row := range rep.Rows {
		rw := reportRowWire{Scenario: row.Label, N: row.Scenario.N, Failed: row.Failed}
		if row.Err != nil {
			rw.Error = row.Err.Error()
		}
		for _, p := range row.Summaries {
			rw.Summaries = append(rw.Summaries, summaryWire{
				Median: wireFloat(p.Median), CILo: wireFloat(p.CI95Lo), CIHi: wireFloat(p.CI95Hi),
				Mean: wireFloat(p.Mean), Trials: p.Trials, Outliers: p.Outliers,
			})
		}
		out.Rows = append(out.Rows, rw)
	}
	return out
}

func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) error {
	var req aggregateRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return err
	}
	grid, err := scenarios(req.Scenarios)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return err
	}
	if code, err := s.checkGrid(len(grid), len(req.Seeds)); err != nil {
		writeError(w, code, err)
		return err
	}
	if len(req.Metrics) == 0 {
		err := errors.New("request needs at least one metric")
		writeError(w, http.StatusBadRequest, err)
		return err
	}
	metrics := make([]repro.Metric, len(req.Metrics))
	for i, name := range req.Metrics {
		m, ok := repro.MetricByName(name)
		if !ok {
			err := fmt.Errorf("unknown metric %q (want one of %v)", name, repro.MetricNames())
			writeError(w, http.StatusBadRequest, err)
			return err
		}
		metrics[i] = m
	}

	rep, aggErr := s.eng.Aggregate(r.Context(), grid, req.Seeds, metrics...)
	if rep == nil {
		if r.Context().Err() != nil {
			return aggErr
		}
		writeError(w, http.StatusInternalServerError, aggErr)
		return aggErr
	}
	// Cell-level failures are reported inline on their rows; the request
	// itself succeeded.
	return writeJSON(w, EncodeReport(rep))
}

// --- GET /v1/stats and /metrics ---------------------------------------------

type statsWire struct {
	Store     *storeWire     `json:"store,omitempty"`
	Sims      simsWire       `json:"sims"`
	Endpoints []endpointWire `json:"endpoints"`
	// Metrics is the full obs registry snapshot — every series /metrics
	// exposes, as JSON. The summary fields above predate it and stay for
	// wire compatibility (cmd/loadgen reads store.hits/misses, sims.total).
	Metrics []obs.Sample `json:"metrics"`
}

type storeWire struct {
	Records  int     `json:"records"`
	Stale    int     `json:"stale"`
	Corrupt  int     `json:"corrupt"`
	Bytes    int64   `json:"bytes"`
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	Puts     int64   `json:"puts"`
	InFlight int     `json:"in_flight"`
	HitRate  float64 `json:"hit_rate"`
	WriteErr string  `json:"write_err,omitempty"`
}

type simsWire struct {
	// InFlight is the number of simulations running right now; Total
	// counts simulator invocations since startup; Budget echoes MaxSims.
	InFlight int64 `json:"in_flight"`
	Total    int64 `json:"total"`
	Budget   int   `json:"budget,omitempty"`
}

type endpointWire struct {
	Name   string  `json:"name"`
	Count  int64   `json:"count"`
	Errors int64   `json:"errors"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// statsSnapshot assembles the current statistics (shared by /v1/stats and
// /metrics).
func (s *Server) statsSnapshot() statsWire {
	out := statsWire{
		Sims:      simsWire{InFlight: s.adm.inFlight.Load(), Total: s.adm.total.Load(), Budget: s.cfg.MaxSims},
		Endpoints: s.met.snapshot(),
	}
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		sw := &storeWire{
			Records: st.Records, Stale: st.Stale, Corrupt: st.Corrupt, Bytes: st.Bytes,
			Hits: st.Hits, Misses: st.Misses, Puts: st.Puts, InFlight: st.InFlight,
		}
		if served := st.Hits + st.Misses; served > 0 {
			sw.HitRate = float64(st.Hits) / float64(served)
		}
		if st.WriteErr != nil {
			sw.WriteErr = st.WriteErr.Error()
		}
		out.Store = sw
	}
	out.Metrics = s.reg.Snapshot()
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) error {
	return writeJSON(w, s.statsSnapshot())
}

// handleMetrics renders the obs registry in Prometheus text exposition
// format: stable-sorted series over every family — per-endpoint HTTP,
// engine cells and durations, kernel and Tx-pool work counters, store,
// admission, and Go runtime.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) error {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	return s.reg.WritePrometheus(w)
}
