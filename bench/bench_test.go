package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// smallWorkloads are the four workloads on grids small enough for a test.
func smallWorkloads() []workload {
	return []workload{
		{"figure-wifi", figureWiFi([]int{10, 20}, []int{10}).run},
		{"figure-abstract", figureAbstract([]int{100, 300}).run},
		{"serve-warm", serveWarm([]int{10, 20, 70}, 8).run},
		{"serve-mixed", serveMixed([]int{10, 20, 70}, 8).run},
	}
}

// spec is the part of BENCHMARK.json the tests check against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runSmall runs w with tiny sizes and returns its result line.
func runSmall(t *testing.T, w workload, trace bool, pins map[pin]string) result {
	t.Helper()
	cfg := config{workload: w.name, seed: 7, seconds: 0.3, trace: trace, dir: t.TempDir(), pins: pins}
	var out, errs bytes.Buffer
	res, err := runOne(context.Background(), cfg, w, &out, &errs)
	if err != nil {
		t.Fatalf("%s: %v\n%s", w.name, err, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not the result: %v", w.name, err)
	}
	if last.Correct != res.Correct || last.Failed != res.Failed {
		t.Fatalf("%s: printed result %+v differs from returned %+v", w.name, last, res)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", w.name, res.Correct, res.Attempted, res.Failed, errs.String())
	}
	return last
}

func TestSmokeEmitsEveryMetric(t *testing.T) {
	s := readSpec(t)
	ws := smallWorkloads()
	for i, w := range workloads() {
		if ws[i].name != w.name || i >= len(s.Workloads) || s.Workloads[i].Name != w.name {
			t.Fatalf("workload %d: %q here, %q in the test, BENCHMARK.json lists %v", i, w.name, ws[i].name, s.Workloads)
		}
	}
	if len(s.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(s.Workloads), len(ws))
	}
	for _, w := range ws {
		for _, trace := range []bool{false, true} {
			res := runSmall(t, w, trace, nil)
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

func TestWrongPinnedDigestFails(t *testing.T) {
	w := smallWorkloads()[0]
	cfg := config{workload: w.name, seed: 7, seconds: 0.3, dir: t.TempDir(),
		pins: map[pin]string{{w.name, 7, 0.3}: "0000"}}
	var out, errs bytes.Buffer
	res, err := runOne(context.Background(), cfg, w, &out, &errs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || !strings.Contains(errs.String(), "pinned 0000") {
		t.Fatalf("a wrong pinned digest passed: correct=%v\n%s", res.Correct, errs.String())
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 0.99}, {5000, 0.99}, {500, 0.98}, {200, 0.95}, {100, 0.90}, {15, 0.5}, {0, 0.5}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	vals := make([]float64, 1000)
	for i := range vals {
		vals[len(vals)-1-i] = float64(i + 1)
	}
	// p99 of 1..1000 is 990: exactly ten samples lie beyond it.
	if got := percentile(vals, tailQuantile(len(vals))); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

// A slow handler behind the open loop: requests due every 10 ms, each
// served in 50 ms on two connections. The third request cannot start
// until the first finishes, so it is sent late and its latency, timed
// from its due time, includes the wait.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 50 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		_, _ = w.Write([]byte("ok\n")) // the test reads what arrives
	}))
	defer ts.Close()
	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	defer transport.CloseIdleConnections()
	reqs := make([]request, 5)
	for i := range reqs {
		reqs[i] = request{path: "/v1/sweep"}
	}
	lg := &loadgen{url: ts.URL, client: &http.Client{Transport: transport}, reqs: reqs, out: make([]outcome, len(reqs))}
	lg.open(context.Background(), len(reqs), 100)

	for k, o := range lg.out {
		if o.err != nil {
			t.Fatalf("request %d: %v", k, o.err)
		}
		// Request k can start no earlier than slot k/2 frees: k/2 × 50 ms.
		earliest := time.Duration(k/conns) * service
		due := time.Duration(k) * 10 * time.Millisecond
		late := o.sent.Sub(o.due)
		if want := earliest - due; late < want-2*time.Millisecond {
			t.Errorf("request %d: sent %v late, want at least %v", k, late, want)
		}
		if lat := o.done.Sub(o.due); lat < late+service {
			t.Errorf("request %d: latency %v does not include its %v lateness plus service", k, lat, late)
		}
	}
	if got := lg.maxIn.Load(); got != conns {
		t.Errorf("in flight at most %d, want %d", got, conns)
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	if v := judge(parent, faster, false, 0.1); v.verdict != "improved" || v.wins != 10 {
		t.Errorf("lower-is-better 20%% drop: %+v", v)
	}
	if v := judge(parent, faster, true, 0.1); v.verdict != "regressed" {
		t.Errorf("higher-is-better 20%% drop: %+v", v)
	}
	if v := judge(parent, parent, false, 0.1); v.verdict != "within bound" || v.wins != 0 {
		t.Errorf("same runs: %+v", v)
	}
	noisy := []float64{50, 150, 60, 140, 100, 70, 130, 90, 110, 100}
	if v := judge(noisy, noisy, false, 0.1); v.verdict != "unresolved" {
		t.Errorf("parent spread over the bound: %+v", v)
	}
}
