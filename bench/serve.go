package main

// The serving workloads: an in-process internal/serve server over a warmed
// result store, driven over loopback by an open loop (requests due on a
// fixed schedule) and then a closed loop (each connection sends its next
// request when the last one completes), both on at most two connections.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/serve"
	"repro/internal/store"
)

// conns is the number of HTTP connections the load generator uses.
const conns = 2

// aggregateMetrics are the report columns of every /v1/aggregate request.
var aggregateMetrics = []string{"cw_slots", "total_time_us", "collisions"}

// serveWorkload describes a traffic mix against a store warmed with the
// wifi cells of paperAlgorithms × ns × warmTrials seeds.
type serveWorkload struct {
	mixed      bool
	ns         []int
	warmTrials int
	// sweepTrials is the seed count of a serve-warm sweep (4 scenarios ×
	// sweepTrials cells).
	sweepTrials int
	// rate is the open loop's request rate; closedRate is the closed loop's
	// request rate on the reference machine, which sizes its request count
	// so it takes about a third of --seconds there.
	rate, closedRate float64
	// maxSims is the server's simulation budget.
	maxSims int
}

func serveWarm(ns []int, warmTrials int) serveWorkload {
	return serveWorkload{ns: ns, warmTrials: warmTrials, sweepTrials: 8, rate: 50, closedRate: 143}
}

func serveMixed(ns []int, warmTrials int) serveWorkload {
	return serveWorkload{mixed: true, ns: ns, warmTrials: warmTrials, rate: 90, closedRate: 290, maxSims: 2}
}

// cellKey names one (scenario, seed) cell; scen indexes the catalogue.
type cellKey struct {
	scen int
	seed uint64
}

// request is one generated HTTP request and what its answer must be.
type request struct {
	path  string
	body  []byte
	scen  []int    // catalogue indices, in request order
	seeds []uint64 // grid seeds (one for /v1/run)
}

// cells is the number of grid cells the request asks for.
func (r request) cells() int { return len(r.scen) * len(r.seeds) }

// catalogue is every scenario the workload can request, with its wire
// spec and fingerprint.
type catalogue struct {
	scen  []repro.Scenario
	specs []repro.ScenarioSpec
	fps   []string
}

func (c *catalogue) add(s repro.Scenario) error {
	sp, err := repro.SpecOf(s)
	if err != nil {
		return err
	}
	fp, err := s.Fingerprint()
	if err != nil {
		return err
	}
	c.scen = append(c.scen, s)
	c.specs = append(c.specs, sp)
	c.fps = append(c.fps, fp)
	return nil
}

// plan is a workload's generated inputs.
type plan struct {
	cat      catalogue
	warm     []int    // catalogue indices of the warmed scenarios
	seeds    []uint64 // the warm seed ladder
	fresh    []uint64 // seeds never in the store
	requests []request
	nOpen    int
}

func (w serveWorkload) plan(cfg config) (*plan, error) {
	p := &plan{}
	for _, a := range paperAlgorithms {
		for _, n := range w.ns {
			p.warm = append(p.warm, len(p.cat.scen))
			if err := p.cat.add(repro.Scenario{Model: repro.WiFi(), Algorithm: repro.MustAlgorithm(a), N: n}); err != nil {
				return nil, err
			}
		}
	}
	// Misses are cheap cells: wifi n <= 60 (warm scenarios under fresh
	// seeds) and abstract n <= 1000.
	var allNs, smallNs []int // indices into w.ns
	for i, n := range w.ns {
		allNs = append(allNs, i)
		if n <= 60 {
			smallNs = append(smallNs, i)
		}
	}
	var missPool []int
	if w.mixed {
		for a := range paperAlgorithms {
			for _, ni := range smallNs {
				missPool = append(missPool, p.warm[a*len(w.ns)+ni])
			}
		}
		for _, a := range paperAlgorithms {
			for _, n := range []int{250, 500, 1000} {
				missPool = append(missPool, len(p.cat.scen))
				if err := p.cat.add(repro.Scenario{Model: repro.Abstract(), Algorithm: repro.MustAlgorithm(a), N: n}); err != nil {
					return nil, err
				}
			}
		}
	}
	g := rand.New(rand.NewPCG(cfg.seed, 0x5e7e))
	p.nOpen = max(1, int(math.Round(cfg.seconds*2/3*w.rate)))
	nClosed := max(1, int(math.Round(cfg.seconds/3*w.closedRate)))
	// Every request that asks for a never-seen cell gets its own fresh
	// seed, so each such cell really misses the store.
	all := repro.Seeds(cfg.seed, w.warmTrials+p.nOpen+nClosed)
	p.seeds, p.fresh = all[:w.warmTrials], all[w.warmTrials:]

	// grid takes one scenario per algorithm, at consecutive n (mod the
	// list) from a random start. Every grid request then has the same
	// shape and nearly the same cost, so the latency tail reflects the
	// server rather than which requests a seed happened to draw.
	grid := func(nis []int) []int {
		start := g.IntN(len(nis))
		out := make([]int, len(paperAlgorithms))
		for a := range out {
			out[a] = p.warm[a*len(w.ns)+nis[(start+a)%len(nis)]]
		}
		return out
	}
	pick := func(from []uint64, k int) []uint64 {
		out := make([]uint64, k)
		for i, j := range g.Perm(len(from))[:k] {
			out[i] = from[j]
		}
		return out
	}
	// The mixed traffic repeats blocks of 20 requests in a seeded order:
	// 5 warm runs, 5 runs of a never-seen cell, 8 sweeps and 2 aggregates,
	// so every seed sends exactly the same mix.
	block := []string{"run", "run", "run", "run", "run", "miss", "miss", "miss", "miss", "miss",
		"sweep", "sweep", "sweep", "sweep", "sweep", "sweep", "sweep", "sweep", "aggregate", "aggregate"}
	for k := range p.nOpen + nClosed {
		if k%len(block) == 0 {
			g.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		var r request
		var err error
		switch kind := block[k%len(block)]; {
		case !w.mixed:
			r, err = p.sweep(grid(allNs), pick(p.seeds, w.sweepTrials))
		case kind == "run":
			r, err = p.run(p.warm[g.IntN(len(p.warm))], p.seeds[g.IntN(len(p.seeds))])
		case kind == "miss":
			r, err = p.run(missPool[g.IntN(len(missPool))], p.fresh[k])
		case kind == "sweep":
			// 3 warm seeds + 1 never-seen seed: a quarter of the cells miss.
			r, err = p.sweep(grid(smallNs), append(pick(p.seeds, 3), p.fresh[k]))
		default:
			r, err = p.aggregate(grid(allNs), pick(p.seeds, 8))
		}
		if err != nil {
			return nil, err
		}
		p.requests = append(p.requests, r)
	}
	return p, nil
}

func (p *plan) specsOf(scen []int) []repro.ScenarioSpec {
	out := make([]repro.ScenarioSpec, len(scen))
	for i, s := range scen {
		out[i] = p.cat.specs[s]
	}
	return out
}

func (p *plan) sweep(scen []int, seeds []uint64) (request, error) {
	body, err := json.Marshal(struct {
		Scenarios []repro.ScenarioSpec `json:"scenarios"`
		Seeds     []uint64             `json:"seeds"`
	}{p.specsOf(scen), seeds})
	return request{path: "/v1/sweep", body: body, scen: scen, seeds: seeds}, err
}

func (p *plan) run(scen int, seed uint64) (request, error) {
	body, err := json.Marshal(struct {
		Scenario repro.ScenarioSpec `json:"scenario"`
		Seed     uint64             `json:"seed"`
	}{p.cat.specs[scen], seed})
	return request{path: "/v1/run", body: body, scen: []int{scen}, seeds: []uint64{seed}}, err
}

func (p *plan) aggregate(scen []int, seeds []uint64) (request, error) {
	body, err := json.Marshal(struct {
		Scenarios []repro.ScenarioSpec `json:"scenarios"`
		Seeds     []uint64             `json:"seeds"`
		Metrics   []string             `json:"metrics"`
	}{p.specsOf(scen), seeds, aggregateMetrics})
	return request{path: "/v1/aggregate", body: body, scen: scen, seeds: seeds}, err
}

// warmStore simulates the warm grid into a fresh store at dir, closes it
// and opens it again; it returns the reopened store, the direct sweep's
// results, and how long the reopen took.
func (p *plan) warmStore(ctx context.Context, dir string) (*repro.Store, map[cellKey]repro.Result, time.Duration, error) {
	st, err := repro.OpenStore(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	grid := make([]repro.Scenario, len(p.warm))
	for i, s := range p.warm {
		grid[i] = p.cat.scen[s]
	}
	results := make(map[cellKey]repro.Result, len(grid)*len(p.seeds))
	for cell := range (&repro.Engine{Store: st}).Sweep(ctx, grid, p.seeds) {
		if cell.Err != nil && err == nil {
			err = cell.Err
		}
		results[cellKey{p.warm[cell.ScenarioIndex], cell.Seed}] = cell.Result
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		_ = st.Close() // the cell error is the one worth reporting
		return nil, nil, 0, err
	}
	if err := st.Close(); err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	st, err = repro.OpenStore(dir)
	return st, results, time.Since(start), err
}

// outcome is what the client saw for one request.
type outcome struct {
	due, sent, done time.Time
	units           [][sha256.Size]byte // hash of each NDJSON line, or of the whole body
	err             error
}

// loadgen drives the server.
type loadgen struct {
	url      string
	client   *http.Client
	reqs     []request
	out      []outcome
	inflight atomic.Int64
	maxIn    atomic.Int64
}

func (lg *loadgen) do(ctx context.Context, k int, buf *bytes.Buffer) {
	o := &lg.out[k]
	n := lg.inflight.Add(1)
	defer lg.inflight.Add(-1)
	for m := lg.maxIn.Load(); n > m && !lg.maxIn.CompareAndSwap(m, n); m = lg.maxIn.Load() {
	}
	r := lg.reqs[k]
	o.sent = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, lg.url+r.path, bytes.NewReader(r.body))
	if err != nil {
		o.err = err
		return
	}
	req.Header.Set(requestHeader, strconv.Itoa(k))
	resp, err := lg.client.Do(req)
	if err != nil {
		o.err = err
		return
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	_ = resp.Body.Close() // fully read; a close error changes nothing
	o.done = time.Now()
	switch {
	case err != nil:
		o.err = err
	case resp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("%s: HTTP %d: %s", r.path, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	case r.path == "/v1/sweep":
		for line := range bytes.Lines(buf.Bytes()) {
			o.units = append(o.units, sha256.Sum256(line))
		}
	default:
		o.units = [][sha256.Size]byte{sha256.Sum256(buf.Bytes())}
	}
}

// open sends requests [0, n) at rate per second, each due at its slot in
// the schedule whether or not earlier ones have finished; with both
// connections busy the next request waits, and that wait counts in its
// latency.
func (lg *loadgen) open(ctx context.Context, n int, rate float64) {
	jobs := make(chan int)
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for k := range jobs {
				lg.do(ctx, k, &buf)
			}
		}()
	}
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for k := 0; k < n && ctx.Err() == nil; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		lg.out[k].due = due
		timer.Reset(time.Until(due))
		select {
		case <-timer.C:
		case <-ctx.Done():
		}
		select {
		case jobs <- k:
		case <-ctx.Done():
		}
	}
	close(jobs)
	wg.Wait()
}

// closed sends requests [from, to) in consecutive segments, back to back
// on each connection, and returns each segment's rate in cells/s.
func (lg *loadgen) closed(ctx context.Context, from, to int) []float64 {
	var rates []float64
	for s := range segments {
		a, b := from+(to-from)*s/segments, from+(to-from)*(s+1)/segments
		cells := 0
		for _, r := range lg.reqs[a:b] {
			cells += r.cells()
		}
		if d := lg.closedRange(ctx, a, b); b > a {
			rates = append(rates, float64(cells)/d.Seconds())
		}
	}
	return rates
}

// closedRange sends requests [from, to) back to back on each connection
// and returns how long they took.
func (lg *loadgen) closedRange(ctx context.Context, from, to int) time.Duration {
	var next atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	start := time.Now()
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for k := int(next.Add(1) - 1); k < to && ctx.Err() == nil; k = int(next.Add(1) - 1) {
				lg.out[k].due = time.Now()
				lg.do(ctx, k, &buf)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// requestHeader carries the request's index to the traced server wrapper,
// which parents its span under the client's.
const requestHeader = "X-Bench-Request"

// serverClock wraps the server's handler with a span per request.
type serverClock struct {
	h      http.Handler
	tr     *tracer
	parent []int64 // client request span ids, by request index
	mu     sync.Mutex
	ms     []float64
}

func (s *serverClock) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.h.ServeHTTP(w, r)
	d := time.Since(start)
	k, err := strconv.Atoi(r.Header.Get(requestHeader))
	if err != nil || k < 0 || k >= len(s.parent) {
		return // not a workload request (the final /v1/stats read)
	}
	s.tr.record(s.parent[k], "serve.handler", start, d)
	s.mu.Lock()
	s.ms = append(s.ms, msOf(d))
	s.mu.Unlock()
}

// statsReply is the part of /v1/stats the benchmark reads.
type statsReply struct {
	Store struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"store"`
	Sims struct {
		Total int64 `json:"total"`
	} `json:"sims"`
	Metrics []struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func (s statsReply) metric(name string) float64 {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

func (lg *loadgen) stats(ctx context.Context) (statsReply, error) {
	var out statsReply
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, lg.url+"/v1/stats", nil)
	if err != nil {
		return out, err
	}
	resp, err := lg.client.Do(req)
	if err != nil {
		return out, err
	}
	defer func() { _ = resp.Body.Close() }() // read-only body
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	return out, json.Unmarshal(data, &out)
}

func (w serveWorkload) run(ctx context.Context, cfg config, tr *tracer) (*measurement, error) {
	p, err := w.plan(cfg)
	if err != nil {
		return nil, err
	}
	m := &measurement{layers: map[string]float64{}}
	st, dir, ref, err := p.setUp(ctx, cfg, m)
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }() // scratch space only
	err = w.serveAndCheck(ctx, m, tr, p, st, ref)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err == nil && tr != nil {
		err = replayLog(m, tr, p, filepath.Join(dir, "results.jsonl"))
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// setUp warms a fresh store and reopens it, setupReps times, timing each
// repetition; every repetition must compute the same cells. It returns
// the last store, still open, its directory and the warm cells.
func (p *plan) setUp(ctx context.Context, cfg config, m *measurement) (*repro.Store, string, map[cellKey]repro.Result, error) {
	var st *repro.Store
	var dir string
	var ref map[cellKey]repro.Result
	var openMS []float64
	for r := range setupReps {
		if st != nil {
			if err := st.Close(); err != nil {
				return nil, "", nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, "", nil, err
			}
		}
		dir = filepath.Join(cfg.dir, fmt.Sprintf("store-%s-%d", cfg.workload, r))
		if err := os.RemoveAll(dir); err != nil {
			return nil, "", nil, err
		}
		start := time.Now()
		s, got, open, err := p.warmStore(ctx, dir)
		if err != nil {
			return nil, "", nil, err
		}
		m.setup = append(m.setup, time.Since(start))
		openMS = append(openMS, msOf(open))
		st = s
		if ref != nil && !sameResults(ref, got) {
			m.problem("set-up repetition %d computed different warm cells", r)
		}
		ref = got
	}
	m.layers["store.open_ms"] = median(openMS)
	return st, dir, ref, nil
}

// serveAndCheck runs the load against a server over st, then checks every
// response and, when traced, derives the per-layer metrics and replays
// the requests.
func (w serveWorkload) serveAndCheck(ctx context.Context, m *measurement, tr *tracer, p *plan, st *repro.Store, ref map[cellKey]repro.Result) error {
	var sink *spanSink
	scfg := serve.Config{Store: st, MaxSims: w.maxSims}
	if tr != nil {
		sink = &spanSink{t: tr}
		scfg.Spans = sink
	}
	var h http.Handler = serve.New(scfg).Handler()
	var clock *serverClock
	reqSpans := make([]int64, len(p.requests))
	if tr != nil {
		clock = &serverClock{h: h, tr: tr, parent: reqSpans}
		h = clock
		// Client request spans are opened up front so the server wrapper
		// can parent its spans under them; their times are set afterwards.
		for k := range reqSpans {
			reqSpans[k] = tr.begin(0, "client.request")
		}
	}
	ts := httptest.NewServer(h)
	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	lg := &loadgen{url: ts.URL, client: &http.Client{Transport: transport}, reqs: p.requests,
		out: make([]outcome, len(p.requests))}

	before := readMem()
	loadStart := time.Now()
	lg.open(ctx, p.nOpen, w.rate)
	m.rates = lg.closed(ctx, p.nOpen, len(p.requests))
	loadTime := time.Since(loadStart)
	after := readMem()
	stats, err := lg.stats(ctx)
	ts.Close()
	transport.CloseIdleConnections()
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if err != nil {
		return err
	}

	// Results of the never-seen cells the requests asked for, computed
	// directly now that the clock has stopped.
	fresh, err := p.freshCells(ctx, ref)
	if err != nil {
		return err
	}
	for k, c := range fresh {
		ref[k] = c
	}
	want := &expectations{p: p, res: ref, memo: map[memoKey][sha256.Size]byte{}}
	if err := want.check(m, lg); err != nil {
		return err
	}
	if got, wantSims := stats.Sims.Total, int64(len(fresh)); got != wantSims {
		m.problem("server simulated %d cells, want %d (the unique never-seen cells requested)", got, wantSims)
	}
	if !w.mixed && stats.Store.Misses != 0 {
		m.problem("serve-warm missed the store %d times", stats.Store.Misses)
	}
	if tr == nil {
		return nil
	}
	for k, o := range lg.out {
		tr.setSpan(reqSpans[k], o.sent, o.done.Sub(o.sent))
	}
	serveLayers(m, p, lg, stats, sink, clock, fresh, after.sub(before), loadTime)
	return replay(ctx, m, tr, p, st, want, lg)
}

// check compares every response with what a correct server returns,
// records the open loop's latencies, and hashes the responses into the
// run's digest.
func (e *expectations) check(m *measurement, lg *loadgen) error {
	m.attempted = int64(len(lg.reqs))
	h := sha256.New()
	for k, o := range lg.out {
		r := lg.reqs[k]
		open := k < e.p.nOpen
		if o.err != nil {
			m.failed++
			m.problem("request %d: %v", k, o.err)
			if open {
				m.latency = append(m.latency, math.Inf(1))
			}
			continue
		}
		if open {
			m.latency = append(m.latency, msOf(o.done.Sub(o.due)))
		}
		exp, err := e.units(r)
		if err != nil {
			return err
		}
		if len(exp) != len(o.units) {
			m.failed++
			m.problem("request %d (%s): %d response units, want %d", k, r.path, len(o.units), len(exp))
			continue
		}
		for i := range exp {
			if exp[i] != o.units[i] {
				m.failed++
				m.problem("request %d (%s): unit %d differs from the direct computation", k, r.path, i)
				break
			}
		}
		for _, u := range o.units {
			h.Write(u[:])
		}
	}
	m.digest = fmt.Sprintf("%x", h.Sum(nil))
	return nil
}

func sameResults(a, b map[cellKey]repro.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		x, err1 := json.Marshal(v)
		y, err2 := json.Marshal(b[k])
		if err1 != nil || err2 != nil || !bytes.Equal(x, y) {
			return false
		}
	}
	return true
}

// freshCells computes, without a store, every requested cell the warm
// store did not hold.
func (p *plan) freshCells(ctx context.Context, warm map[cellKey]repro.Result) (map[cellKey]repro.Result, error) {
	var keys []cellKey
	seen := map[cellKey]bool{}
	for _, r := range p.requests {
		for _, s := range r.scen {
			for _, seed := range r.seeds {
				k := cellKey{s, seed}
				if _, ok := warm[k]; !ok && !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
		}
	}
	grid := make([]repro.Scenario, len(keys))
	for i, k := range keys {
		grid[i] = p.cat.scen[k.scen].WithOptions(repro.WithSeed(k.seed))
	}
	results, err := (&repro.Engine{}).RunMany(ctx, grid)
	if err != nil {
		return nil, err
	}
	out := make(map[cellKey]repro.Result, len(keys))
	for i, k := range keys {
		out[k] = results[i]
	}
	return out, nil
}

// expectations computes the hash of every response unit a correct server
// returns, memoizing the per-cell encodings.
type expectations struct {
	p    *plan
	res  map[cellKey]repro.Result
	memo map[memoKey][sha256.Size]byte
}

// memoKey is one sweep line: the cell at grid position (i, j).
type memoKey struct {
	i, j int
	cell cellKey
}

func (e *expectations) cell(i, j, scen int, seed uint64) ([]byte, error) {
	return serve.EncodeCell(repro.Cell{ScenarioIndex: i, SeedIndex: j, Seed: seed, Result: e.res[cellKey{scen, seed}]})
}

func (e *expectations) units(r request) ([][sha256.Size]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	switch r.path {
	case "/v1/sweep":
		out := make([][sha256.Size]byte, 0, r.cells())
		for i, s := range r.scen {
			for j, seed := range r.seeds {
				key := memoKey{i, j, cellKey{s, seed}}
				h, ok := e.memo[key]
				if !ok {
					line, err := e.cell(i, j, s, seed)
					if err != nil {
						return nil, err
					}
					h = sha256.Sum256(line)
					e.memo[key] = h
				}
				out = append(out, h)
			}
		}
		return out, nil
	case "/v1/run":
		res := e.res[cellKey{r.scen[0], r.seeds[0]}]
		err := enc.Encode(struct {
			Fingerprint string        `json:"fingerprint,omitempty"`
			Seed        uint64        `json:"seed"`
			Result      *repro.Result `json:"result"`
		}{e.p.cat.fps[r.scen[0]], r.seeds[0], &res})
		return [][sha256.Size]byte{sha256.Sum256(buf.Bytes())}, err
	default:
		ms := make([]repro.Metric, len(aggregateMetrics))
		for i, name := range aggregateMetrics {
			ms[i], _ = repro.MetricByName(name)
		}
		agg := repro.NewAggregator(ms...)
		for i, s := range r.scen {
			for j, seed := range r.seeds {
				if err := agg.Add(repro.Cell{ScenarioIndex: i, SeedIndex: j, Seed: seed, Result: e.res[cellKey{s, seed}]}); err != nil {
					return nil, err
				}
			}
		}
		rep := agg.Finish()
		for i := range rep.Rows {
			sc := e.p.cat.scen[r.scen[rep.Rows[i].Group]]
			rep.Rows[i].Scenario, rep.Rows[i].Label = sc, sc.String()
		}
		err := enc.Encode(serve.EncodeReport(rep))
		return [][sha256.Size]byte{sha256.Sum256(buf.Bytes())}, err
	}
}

// serveLayers derives the per-layer metrics of a traced serve run.
func serveLayers(m *measurement, p *plan, lg *loadgen, stats statsReply,
	sink *spanSink, clock *serverClock, fresh map[cellKey]repro.Result, mem memDelta, loadTime time.Duration) {
	l := m.layers
	var cellMS, overheadMS, macMS, slottedMS, hitUS, putUS, admitMS []float64
	var busy time.Duration
	for _, sp := range sink.cells {
		cellMS = append(cellMS, msOf(sp.Duration))
		busy += sp.Duration
		sim, put, admit := time.Duration(attrInt(sp, "sim_ns")), time.Duration(attrInt(sp, "put_ns")), time.Duration(attrInt(sp, "admit_wait_ns"))
		overheadMS = append(overheadMS, msOf(sp.Duration-sim-put-admit))
		if !attrBool(sp, "simulated") {
			hitUS = append(hitUS, usOf(sp.Duration))
			continue
		}
		admitMS = append(admitMS, msOf(admit))
		if put > 0 {
			putUS = append(putUS, usOf(put))
		}
		if strings.HasPrefix(attrString(sp, "scenario"), "wifi/") {
			macMS = append(macMS, msOf(sim))
		} else {
			slottedMS = append(slottedMS, msOf(sim))
		}
	}
	cells := 0
	for _, r := range p.requests {
		cells += r.cells()
	}
	l["engine.cell_ms_p50"] = percentile(cellMS, 0.5)
	l["engine.cell_ms_p99"] = percentile(cellMS, tailQuantile(len(cellMS)))
	l["engine.busy_frac"] = ratio(busy.Seconds(), loadTime.Seconds()*float64(runtime.GOMAXPROCS(0)))
	l["engine.overhead_ms_mean"] = mean(overheadMS)
	mem.perCell(l, cells)

	collisions := 0
	for _, res := range fresh {
		if b := batchOf(res); b != nil && b.Model == "wifi" {
			collisions += b.Collisions
		}
	}
	l["mac.sim_ms_p50"] = percentile(macMS, 0.5)
	l["mac.sim_ms_p99"] = percentile(macMS, tailQuantile(len(macMS)))
	l["mac.sim_s_total"] = sum(macMS) / 1e3
	l["mac.collisions"] = float64(collisions)
	kernelLayers(l, repro.SimStats{
		EventsScheduled: uint64(stats.metric("contend_kernel_events_scheduled_total")),
		EventsFired:     uint64(stats.metric("contend_kernel_events_fired_total")),
		EventsCanceled:  uint64(stats.metric("contend_kernel_events_canceled_total")),
		EventsReused:    uint64(stats.metric("contend_kernel_events_reused_total")),
		IdleSlotsElided: uint64(stats.metric("contend_kernel_idle_slots_skipped_total")),
		MaxQueueLen:     int(stats.metric("contend_kernel_max_queue_len")),
		TxTotal:         int(stats.metric("contend_pool_tx_total")),
		TxReuses:        int(stats.metric("contend_pool_tx_reuses_total")),
	}, sum(macMS))
	l["slotted.sim_ms_p50"] = percentile(slottedMS, 0.5)
	l["slotted.sim_ms_p99"] = percentile(slottedMS, tailQuantile(len(slottedMS)))
	l["slotted.sim_s_total"] = sum(slottedMS) / 1e3

	l["store.hit_cell_us_p50"] = percentile(hitUS, 0.5)
	l["store.hit_cell_us_p99"] = percentile(hitUS, tailQuantile(len(hitUS)))
	l["store.put_us_p50"] = percentile(putUS, 0.5)
	l["store.put_us_p99"] = percentile(putUS, tailQuantile(len(putUS)))
	l["store.hit_ratio"] = ratio(float64(stats.Store.Hits), float64(stats.Store.Hits+stats.Store.Misses))

	l["serve.server_ms_p50"] = percentile(clock.ms, 0.5)
	l["serve.server_ms_p99"] = percentile(clock.ms, tailQuantile(len(clock.ms)))
	l["serve.admit_wait_ms_p99"] = percentile(admitMS, tailQuantile(len(admitMS)))
	l["serve.sims"] = float64(stats.Sims.Total)

	var late []float64
	for _, o := range lg.out[:p.nOpen] {
		late = append(late, msOf(o.sent.Sub(o.due)))
	}
	l["loadgen.late_ms_p99"] = percentile(late, tailQuantile(len(late)))
	l["loadgen.inflight_max"] = float64(lg.maxIn.Load())
	l["loadgen.requests"] = float64(len(p.requests))
}

// replayEvery thins the traced replay to every 4th request: a serial
// replay of them all would take as long as the load phase itself.
const replayEvery = 4

// replayed reports whether request k is one the traced run replays.
func replayed(k int, r request) bool { return r.path == "/v1/sweep" && k%replayEvery == 0 }

// replay re-runs sweep requests serially through the stages the server
// runs — decode, fingerprint, store get, cell encode — each in its own
// span, and reports the share of client time those stages leave
// unexplained.
func replay(ctx context.Context, m *measurement, tr *tracer, p *plan, st *repro.Store,
	want *expectations, lg *loadgen) error {
	var decodeUS, fpUS, getUS, encUS []float64
	var covered, client float64
	root := tr.begin(0, "replay")
	for k, r := range p.requests {
		if !replayed(k, r) || lg.out[k].err != nil || ctx.Err() != nil {
			continue
		}
		id := tr.begin(root, "replay.request")
		stages := 0.0
		for i, s := range r.scen {
			spec, err := json.Marshal(p.cat.specs[s])
			if err != nil {
				return err
			}
			var sc repro.Scenario
			var derr error
			d := tr.timed(id, "codec.decode", func() {
				var sp repro.ScenarioSpec
				if sp, derr = repro.DecodeScenarioSpec(spec); derr == nil {
					sc, derr = sp.Scenario()
				}
			})
			if derr != nil {
				return derr
			}
			decodeUS = append(decodeUS, usOf(d))
			var fp string
			d = tr.timed(id, "codec.fingerprint", func() { fp, derr = sc.Fingerprint() })
			if derr != nil {
				return derr
			}
			fpUS = append(fpUS, usOf(d))
			stages += usOf(d) + decodeUS[len(decodeUS)-1]
			for j, seed := range r.seeds {
				var res repro.Result
				var ok bool
				d := tr.timed(id, "store.get", func() { res, ok = st.Get(fp, seed) })
				getUS = append(getUS, usOf(d))
				if !ok {
					m.problem("replay: cell %s seed %d not in the store", sc, seed)
					continue
				}
				var line []byte
				d2 := tr.timed(id, "serve.encode_cell", func() {
					line, derr = serve.EncodeCell(repro.Cell{ScenarioIndex: i, SeedIndex: j, Seed: seed, Result: res})
				})
				if derr != nil {
					return derr
				}
				encUS = append(encUS, usOf(d2))
				stages += usOf(d) + usOf(d2)
				if exp, err := want.cell(i, j, s, seed); err != nil || !bytes.Equal(exp, line) {
					m.problem("replay: cell %s seed %d encodes differently from the direct computation", sc, seed)
				}
			}
		}
		tr.end(id)
		covered += stages / 1e3
		client += msOf(lg.out[k].done.Sub(lg.out[k].sent))
	}
	tr.end(root)
	l := m.layers
	l["codec.decode_us_p50"] = percentile(decodeUS, 0.5)
	l["codec.fingerprint_us_p50"] = percentile(fpUS, 0.5)
	l["store.get_us_p50"] = percentile(getUS, 0.5)
	l["store.get_us_p99"] = percentile(getUS, tailQuantile(len(getUS)))
	l["serve.encode_cell_us_p50"] = percentile(encUS, 0.5)
	l["serve.encode_cell_us_p99"] = percentile(encUS, tailQuantile(len(encUS)))
	l["serve.unattributed_frac"] = 1 - ratio(covered, client)
	return nil
}

// replayLog reads the replayed requests' cells again straight from the
// record log, reopened after the store closed.
func replayLog(m *measurement, tr *tracer, p *plan, path string) (err error) {
	lg, err := store.Open(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := lg.Close(); err == nil {
			err = cerr
		}
	}()
	var us []float64
	root := tr.begin(0, "replay.log")
	for k, r := range p.requests {
		if !replayed(k, r) {
			continue
		}
		for _, s := range r.scen {
			for _, seed := range r.seeds {
				var ok bool
				var gerr error
				d := tr.timed(root, "store.log_get", func() {
					_, ok, gerr = lg.Get(store.Key{Fingerprint: p.cat.fps[s], Seed: seed})
				})
				if gerr != nil || !ok {
					m.problem("log replay: (%s, %d) unreadable: ok=%v err=%v", p.cat.scen[s], seed, ok, gerr)
				}
				us = append(us, usOf(d))
			}
		}
	}
	tr.end(root)
	stats := lg.Stats()
	m.layers["store.log_get_us_p50"] = percentile(us, 0.5)
	m.layers["store.log_get_us_p99"] = percentile(us, tailQuantile(len(us)))
	m.layers["store.record_bytes_mean"] = ratio(float64(stats.Bytes), float64(stats.Records))
	return nil
}
