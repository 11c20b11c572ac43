package serve

// Acceptance tests for the serving layer, run against a real HTTP stack
// (httptest). The load-bearing claims: a warm sweep is served with zero
// simulator invocations and a byte-identical NDJSON body; many concurrent
// clients over overlapping grids simulate each unique cell exactly once;
// an abandoned streaming request stops simulating and leaks nothing.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
)

// newTestServer builds a store-backed Server plus its httptest host; the
// store is closed via t.Cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		st, err := repro.OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = st.Close() })
		cfg.Store = st
	}
	srv := New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

func postJSON(t *testing.T, url, client string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Client", client)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// testGrid is a small mixed grid (abstract is cheap, one wifi row exercises
// the full result shape).
func testGrid() []repro.ScenarioSpec {
	return []repro.ScenarioSpec{
		{Model: "abstract", Algorithm: "BEB", N: 40},
		{Model: "abstract", Algorithm: "LLB", N: 40},
		{Model: "wifi", Algorithm: "BEB", N: 10},
	}
}

// TestWarmSweepZeroSimsByteIdentical is the tentpole acceptance test: the
// second POST /v1/sweep of the same grid invokes the simulator zero times
// and returns byte-for-byte the same NDJSON body — which also matches a
// direct Engine.Sweep of the same grid encoded through EncodeCell.
func TestWarmSweepZeroSimsByteIdentical(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	specs := testGrid()
	seeds := repro.Seeds(7, 3)
	req := sweepRequest{Scenarios: specs, Seeds: seeds}

	resp, cold := postJSON(t, hs.URL+"/v1/sweep", "a", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold sweep: HTTP %d: %s", resp.StatusCode, cold)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	coldSims := srv.adm.total.Load()
	if want := int64(len(specs) * len(seeds)); coldSims != want {
		t.Fatalf("cold sweep simulated %d cells, want %d", coldSims, want)
	}

	resp, warm := postJSON(t, hs.URL+"/v1/sweep", "a", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm sweep: HTTP %d: %s", resp.StatusCode, warm)
	}
	if got := srv.adm.total.Load(); got != coldSims {
		t.Fatalf("warm sweep invoked the simulator %d times, want 0", got-coldSims)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm NDJSON body differs from cold body")
	}

	// Ground truth: a direct storeless Engine.Sweep of the same grid,
	// encoded through the same cell codec.
	scenarios := make([]repro.Scenario, len(specs))
	for i, sp := range specs {
		sc, err := sp.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		scenarios[i] = sc
	}
	var direct bytes.Buffer
	eng := repro.Engine{}
	for cell := range eng.Sweep(context.Background(), scenarios, seeds) {
		line, err := EncodeCell(cell)
		if err != nil {
			t.Fatal(err)
		}
		direct.Write(line)
	}
	if !bytes.Equal(cold, direct.Bytes()) {
		t.Fatal("served NDJSON differs from direct Engine.Sweep encoding")
	}

	if lines := bytes.Count(cold, []byte{'\n'}); lines != len(specs)*len(seeds) {
		t.Fatalf("body has %d lines, want %d", lines, len(specs)*len(seeds))
	}
}

// TestConcurrentClientsExactlyOnce floods the server with 100 clients over
// overlapping grids and asserts each unique (fingerprint, seed) cell was
// simulated exactly once — the store's singleflight holding under real HTTP
// concurrency.
func TestConcurrentClientsExactlyOnce(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	pool := []repro.ScenarioSpec{
		{Model: "abstract", Algorithm: "BEB", N: 30},
		{Model: "abstract", Algorithm: "LB", N: 30},
		{Model: "abstract", Algorithm: "LLB", N: 30},
		{Model: "abstract", Algorithm: "STB", N: 30},
		{Model: "abstract", Algorithm: "BEB", N: 60},
		{Model: "abstract", Algorithm: "LB", N: 60},
	}
	seeds := repro.Seeds(11, 2)

	const clients = 100
	const width = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		grid := make([]repro.ScenarioSpec, width)
		for j := 0; j < width; j++ {
			grid[j] = pool[(c+j)%len(pool)]
		}
		wg.Add(1)
		go func(c int, grid []repro.ScenarioSpec) {
			defer wg.Done()
			data, err := json.Marshal(sweepRequest{Scenarios: grid, Seeds: seeds})
			if err != nil {
				errs <- err
				return
			}
			req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/sweep", bytes.NewReader(data))
			if err != nil {
				errs <- err
				return
			}
			req.Header.Set("X-Client", fmt.Sprintf("client-%d", c))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errs <- err
				return
			}
			body, err := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: HTTP %d: %s", c, resp.StatusCode, body)
				return
			}
			if lines := bytes.Count(body, []byte{'\n'}); lines != width*len(seeds) {
				errs <- fmt.Errorf("client %d: %d lines, want %d", c, lines, width*len(seeds))
			}
		}(c, grid)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	unique := int64(len(pool) * len(seeds)) // every pool entry has a distinct fingerprint
	if got := srv.adm.total.Load(); got != unique {
		t.Fatalf("%d clients simulated %d cells, want exactly %d (one per unique cell)", clients, got, unique)
	}
	st := srv.cfg.Store.Stats()
	if st.Misses != unique {
		t.Fatalf("store misses = %d, want %d", st.Misses, unique)
	}
}

// TestClientDisconnectStopsSweep abandons a large streaming sweep after one
// line and asserts the server stops simulating and unwinds its goroutines —
// the serving-layer extension of leak_test.go's cancellation contract.
func TestClientDisconnectStopsSweep(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 2})
	before := runtime.NumGoroutine()

	// 2 scenarios × 400 seeds: far more cells than can finish before the
	// cancel below, each individually fast.
	specs := []repro.ScenarioSpec{
		{Model: "abstract", Algorithm: "BEB", N: 200},
		{Model: "abstract", Algorithm: "LLB", N: 200},
	}
	data, err := json.Marshal(sweepRequest{Scenarios: specs, Seeds: repro.Seeds(3, 400)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/sweep", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Client", "quitter")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one cell line, then hang up mid-stream.
	if _, err := bufioReadLine(resp.Body); err != nil {
		t.Fatalf("reading first cell: %v", err)
	}
	cancel()
	_ = resp.Body.Close()

	// The sweep must stop: the simulator invocation counter goes quiet well
	// short of the full grid, and the goroutine count returns to baseline.
	deadline := time.Now().Add(10 * time.Second)
	for {
		quiet := srv.adm.total.Load()
		time.Sleep(50 * time.Millisecond)
		if srv.adm.total.Load() == quiet && srv.adm.inFlight.Load() == 0 {
			runtime.GC()
			if now := runtime.NumGoroutine(); now <= before {
				if total := srv.adm.total.Load(); total >= 800 {
					t.Fatalf("abandoned sweep ran the whole grid (%d sims)", total)
				}
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned sweep did not unwind: %d goroutines before, %d now, %d sims in flight",
				before, runtime.NumGoroutine(), srv.adm.inFlight.Load())
		}
	}
}

// bufioReadLine reads through the next newline.
func bufioReadLine(r io.Reader) (string, error) {
	var line []byte
	buf := make([]byte, 1)
	for {
		if _, err := r.Read(buf); err != nil {
			return string(line), err
		}
		if buf[0] == '\n' {
			return string(line), nil
		}
		line = append(line, buf[0])
	}
}

// TestPerClientLimit pins the 429 path deterministically: with a budget of
// one simulation held by the test, a client's first request parks waiting
// for budget and its second is rejected; a different client is unaffected
// (it gets 429-free admission, then parks too).
func TestPerClientLimit(t *testing.T) {
	srv, hs := newTestServer(t, Config{MaxSims: 1, PerClient: 1})

	// Occupy the whole simulation budget so requests park deterministically.
	release, err := srv.adm.admitSim(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	spec := []repro.ScenarioSpec{{Model: "abstract", Algorithm: "BEB", N: 20}}
	data, err := json.Marshal(sweepRequest{Scenarios: spec, Seeds: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	firstDone := make(chan error, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/sweep", bytes.NewReader(data))
		if err != nil {
			firstDone <- err
			return
		}
		req.Header.Set("X-Client", "greedy")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			firstDone <- err
			return
		}
		_, err = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("first request: HTTP %d", resp.StatusCode)
		}
		firstDone <- err
	}()

	// Wait until the first request holds its admission slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.adm.mu.Lock()
		held := srv.adm.clients["greedy"]
		srv.adm.mu.Unlock()
		if held == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first request never claimed its admission slot")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, body := postJSON(t, hs.URL+"/v1/sweep", "greedy", sweepRequest{Scenarios: spec, Seeds: []uint64{1}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second concurrent request: HTTP %d (%s), want 429", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "per-client") {
		t.Fatalf("429 body %q does not explain the limit", body)
	}

	// Releasing the budget lets the parked request finish normally.
	release()
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}

	// The slot is free again: the same client is admitted.
	resp, body = postJSON(t, hs.URL+"/v1/sweep", "greedy", sweepRequest{Scenarios: spec, Seeds: []uint64{1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release request: HTTP %d (%s)", resp.StatusCode, body)
	}
}

// TestRunEndpoint checks the single-cell path: a result with its
// fingerprint, cache-backed (the second identical request is a store hit,
// zero additional simulations).
func TestRunEndpoint(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	req := runRequest{Scenario: repro.ScenarioSpec{Model: "abstract", Algorithm: "BEB", N: 25}, Seed: 42}
	resp, body := postJSON(t, hs.URL+"/v1/run", "a", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Fingerprint string          `json:"fingerprint"`
		Seed        uint64          `json:"seed"`
		Result      json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	sc, err := req.Scenario.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	wantFP, err := sc.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if out.Fingerprint != wantFP || out.Seed != 42 || len(out.Result) == 0 {
		t.Fatalf("response %s, want fingerprint %s seed 42", body, wantFP)
	}

	sims := srv.adm.total.Load()
	resp, body2 := postJSON(t, hs.URL+"/v1/run", "a", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm run: HTTP %d", resp.StatusCode)
	}
	if got := srv.adm.total.Load(); got != sims {
		t.Fatalf("warm run simulated %d times", got-sims)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("warm run body differs from cold body")
	}
}

// TestUnresolvableCell runs a scenario that Validate accepts but whose
// schedule cannot resolve it (two-slot windows for 64 packets). In a sweep
// it is that cell's error line between good cells; on /v1/run it is a 422;
// either way the server keeps serving.
func TestUnresolvableCell(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	poison := repro.ScenarioSpec{Model: "abstract", Algorithm: "FIXED:2", N: 64}
	good := repro.ScenarioSpec{Model: "abstract", Algorithm: "BEB", N: 40}
	resp, body := postJSON(t, hs.URL+"/v1/sweep", "a",
		sweepRequest{Scenarios: []repro.ScenarioSpec{good, poison, good}, Seeds: []uint64{1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: HTTP %d %s", resp.StatusCode, body)
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("sweep streamed %d lines, want 3:\n%s", len(lines), body)
	}
	for i, line := range lines {
		var cell cellWire
		if err := json.Unmarshal([]byte(line), &cell); err != nil {
			t.Fatal(err)
		}
		if poisoned := i == 1; poisoned != (cell.Error != "") || poisoned == (cell.Result != nil) {
			t.Fatalf("line %d: %s", i, line)
		}
	}
	if !strings.Contains(lines[1], repro.ErrNoProgress.Error()) {
		t.Fatalf("poison cell line %s does not carry ErrNoProgress", lines[1])
	}

	if resp, body := postJSON(t, hs.URL+"/v1/run", "a", runRequest{Scenario: poison, Seed: 1}); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unresolvable run: HTTP %d %s, want 422", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, hs.URL+"/v1/run", "a", runRequest{Scenario: good, Seed: 2}); resp.StatusCode != http.StatusOK {
		t.Fatalf("run after the poison cell: HTTP %d %s", resp.StatusCode, body)
	}
}

// TestAggregateEndpoint checks the report path end to end, including the
// NaN → null convention for not-applicable metrics.
func TestAggregateEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	req := aggregateRequest{
		Scenarios: []repro.ScenarioSpec{
			{Model: "abstract", Algorithm: "BEB", N: 30},
			{Model: "abstract", Algorithm: "LLB", N: 30},
		},
		Seeds:   repro.Seeds(5, 4),
		Metrics: []string{"cw_slots", "total_time_us"},
	}
	resp, body := postJSON(t, hs.URL+"/v1/aggregate", "a", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var rep struct {
		Metrics []string `json:"metrics"`
		Rows    []struct {
			Scenario  string `json:"scenario"`
			N         int    `json:"n"`
			Summaries []struct {
				Median   *float64 `json:"median"`
				Trials   int      `json:"trials"`
				Outliers int      `json:"outliers"`
			} `json:"summaries"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("decoding report: %v\n%s", err, body)
	}
	if len(rep.Rows) != 2 || len(rep.Metrics) != 2 {
		t.Fatalf("report shape: %s", body)
	}
	for _, row := range rep.Rows {
		if len(row.Summaries) != 2 || row.N != 30 {
			t.Fatalf("row shape: %s", body)
		}
		if row.Summaries[0].Median == nil || row.Summaries[0].Trials+row.Summaries[0].Outliers != 4 {
			t.Fatalf("cw_slots summary missing: %s", body)
		}
		// total_time_us is NaN under the abstract model → null on the wire.
		if row.Summaries[1].Median != nil {
			t.Fatalf("abstract total_time_us should be null: %s", body)
		}
	}

	req.Metrics = []string{"nope"}
	resp, body = postJSON(t, hs.URL+"/v1/aggregate", "a", req)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "cw_slots") {
		t.Fatalf("unknown metric: HTTP %d %s (want 400 listing valid names)", resp.StatusCode, body)
	}
}

// TestRequestValidation pins the strict edges of the HTTP surface.
func TestRequestValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxCells: 4})
	post := func(path, body string) (*http.Response, string) {
		resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(out)
	}

	// Unknown field anywhere in the body → 400.
	if resp, body := post("/v1/run", `{"scenario":{"model":"abstract","algorithm":"BEB","n":8},"sede":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown top-level field: HTTP %d %s", resp.StatusCode, body)
	}
	if resp, body := post("/v1/run", `{"scenario":{"model":"abstract","algorithm":"BEB","n":8,"turbo":true},"seed":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown scenario field: HTTP %d %s", resp.StatusCode, body)
	}
	// Trailing data → 400.
	if resp, _ := post("/v1/run", `{"scenario":{"model":"abstract","algorithm":"BEB","n":8},"seed":1} garbage`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trailing data: HTTP %d", resp.StatusCode)
	}
	// Invalid scenario → 400 with the repro validation message.
	if resp, body := post("/v1/run", `{"scenario":{"model":"abstract","algorithm":"WAT","n":8},"seed":1}`); resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "unknown algorithm") {
		t.Fatalf("invalid scenario: HTTP %d %s", resp.StatusCode, body)
	}
	// A batch that can never resolve → 400, before any simulation runs.
	if resp, body := post("/v1/run", `{"scenario":{"model":"abstract","algorithm":"FIXED:1","n":2},"seed":1}`); resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "never resolves") {
		t.Fatalf("unresolvable batch: HTTP %d %s", resp.StatusCode, body)
	}
	// A payload past the 802.11 maximum MSDU → 400, and the server lives
	// on: 2^55 bytes used to overflow the frame-duration arithmetic and
	// panic in a sweep worker, killing the process.
	if resp, body := post("/v1/run", `{"scenario":{"model":"wifi","algorithm":"BEB","n":2,"payload":36028797018963968},"seed":1}`); resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "payload") {
		t.Fatalf("oversized payload: HTTP %d %s", resp.StatusCode, body)
	}
	if resp, body := post("/v1/run", `{"scenario":{"model":"wifi","algorithm":"BEB","n":2,"payload":1024},"seed":1}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("good run after the oversized payload: HTTP %d %s", resp.StatusCode, body)
	}
	// Grid over MaxCells → 413.
	if resp, _ := post("/v1/sweep", `{"scenarios":[{"model":"abstract","algorithm":"BEB","n":8}],"seeds":[1,2,3,4,5]}`); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized grid: HTTP %d", resp.StatusCode)
	}
	// Empty grid → 400.
	if resp, _ := post("/v1/sweep", `{"scenarios":[],"seeds":[1]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty grid: HTTP %d", resp.StatusCode)
	}
	// Empty seed list → 400, on both grid endpoints: a malformed request,
	// not an oversized one.
	if resp, body := post("/v1/sweep", `{"scenarios":[{"model":"abstract","algorithm":"BEB","n":8}],"seeds":[]}`); resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "seed") {
		t.Fatalf("sweep without seeds: HTTP %d %s", resp.StatusCode, body)
	}
	if resp, body := post("/v1/aggregate", `{"scenarios":[{"model":"abstract","algorithm":"BEB","n":8}],"seeds":[],"metrics":["cw_slots"]}`); resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "seed") {
		t.Fatalf("aggregate without seeds: HTTP %d %s", resp.StatusCode, body)
	}
	// Wrong method → 405.
	resp, err := http.Get(hs.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run: HTTP %d", resp.StatusCode)
	}
}

// TestStatsAndMetrics drives a little traffic and checks both observability
// surfaces report it coherently.
func TestStatsAndMetrics(t *testing.T) {
	srv, hs := newTestServer(t, Config{MaxSims: 4})
	req := sweepRequest{Scenarios: testGrid()[:2], Seeds: repro.Seeds(1, 2)}
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, hs.URL+"/v1/sweep", "a", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep %d: HTTP %d %s", i, resp.StatusCode, body)
		}
	}

	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats: HTTP %d err %v", resp.StatusCode, err)
	}
	var stats struct {
		Store *struct {
			Hits    int64   `json:"hits"`
			Misses  int64   `json:"misses"`
			HitRate float64 `json:"hit_rate"`
		} `json:"store"`
		Sims struct {
			InFlight int64 `json:"in_flight"`
			Total    int64 `json:"total"`
			Budget   int   `json:"budget"`
		} `json:"sims"`
		Endpoints []struct {
			Name  string  `json:"name"`
			Count int64   `json:"count"`
			P50MS float64 `json:"p50_ms"`
		} `json:"endpoints"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("decoding stats: %v\n%s", err, body)
	}
	if stats.Store == nil || stats.Store.Misses != 4 || stats.Store.Hits != 4 {
		t.Fatalf("store stats: %s", body)
	}
	if stats.Store.HitRate != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", stats.Store.HitRate)
	}
	if stats.Sims.Total != 4 || stats.Sims.InFlight != 0 || stats.Sims.Budget != 4 {
		t.Fatalf("sims stats: %s", body)
	}
	if len(stats.Endpoints) != 1 || stats.Endpoints[0].Name != "sweep" || stats.Endpoints[0].Count != 2 {
		t.Fatalf("endpoint stats: %s", body)
	}
	if stats.Endpoints[0].P50MS < 0 {
		t.Fatalf("negative latency: %s", body)
	}
	_ = srv

	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d err %v", resp.StatusCode, err)
	}
	for _, want := range []string{
		"contend_store_hits_total 4",
		"contend_store_misses_total 4",
		"contend_store_puts_total 4",
		"contend_sims_total 4",
		"contend_sims_budget 4",
		`contend_requests_total{endpoint="sweep"} 2`,
		`contend_request_latency_ms_count{endpoint="sweep"} 2`,
		`contend_request_latency_ms_bucket{endpoint="sweep",le="+Inf"} 2`,
		// Engine, kernel, pool, and runtime families from the observer.
		`contend_engine_cells_total{outcome="simulated"} 4`,
		`contend_engine_cells_total{outcome="replayed"} 4`,
		"contend_engine_sim_duration_ms_count 4",
		"contend_engine_admit_wait_ms_count 4",
		"contend_kernel_events_fired_total",
		"contend_kernel_idle_slots_skipped_total",
		"contend_pool_tx_recycles_total",
		"contend_runtime_goroutines",
		"contend_runtime_gc_cycles_total",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("/metrics missing %q:\n%s", want, prom)
		}
	}
}

// TestPprofAndSpans: -pprof mounts the profiling handlers on the server's
// own mux (and they stay absent by default), and a configured span sink
// receives one lifecycle span per grid cell with the hit/miss attribute.
func TestPprofAndSpans(t *testing.T) {
	var spanBuf bytes.Buffer
	sink := obs.NewJSONL(&spanBuf)
	_, hs := newTestServer(t, Config{Pprof: true, Spans: sink})

	resp, err := http.Get(hs.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/: HTTP %d, want 200 with Pprof on", resp.StatusCode)
	}

	req := sweepRequest{Scenarios: testGrid()[:1], Seeds: repro.Seeds(3, 2)}
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, hs.URL+"/v1/sweep", "a", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep: HTTP %d %s", resp.StatusCode, body)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("span sink error: %v", err)
	}
	var sim, replay int
	for _, line := range strings.Split(strings.TrimSpace(spanBuf.String()), "\n") {
		var span struct {
			Name  string `json:"name"`
			DurNs int64  `json:"dur_ns"`
			Attrs []struct {
				K string `json:"k"`
				V any    `json:"v"`
			} `json:"attrs"`
		}
		if err := json.Unmarshal([]byte(line), &span); err != nil {
			t.Fatalf("span line not JSON: %v\n%s", err, line)
		}
		if span.Name != "cell" {
			t.Fatalf("span name %q, want cell", span.Name)
		}
		for _, a := range span.Attrs {
			if a.K == "simulated" {
				if a.V == true {
					sim++
				} else {
					replay++
				}
			}
		}
	}
	if sim != 2 || replay != 2 {
		t.Fatalf("spans: %d simulated + %d replayed, want 2 + 2\n%s", sim, replay, spanBuf.String())
	}

	// Default config: profiling endpoints absent.
	_, hs2 := newTestServer(t, Config{})
	resp, err = http.Get(hs2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("/debug/pprof/ served without Pprof enabled")
	}
}

// TestUncachedServer: without a store the server still works, it just
// simulates every cell and reports no store section.
func TestUncachedServer(t *testing.T) {
	srv := New(Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	req := sweepRequest{Scenarios: testGrid()[:1], Seeds: []uint64{1}}
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, hs.URL+"/v1/sweep", "a", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
		}
	}
	if got := srv.adm.total.Load(); got != 2 {
		t.Fatalf("uncached server simulated %d cells, want 2", got)
	}
	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), `"store"`) {
		t.Fatalf("uncached stats should omit the store section: %s", body)
	}
}
