// BenchmarkServeWarm measures the serving layer's end-to-end cost for its
// steady-state case: a warm-cache POST /v1/sweep over a real HTTP stack —
// strict decode, store replay for every cell, NDJSON encode, flush. The gap
// to BenchmarkSweepCached (the same replay without HTTP) is the price of
// the wire. Folded into BENCH_baseline.json by cmd/benchjson.
package repro_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro"
	"repro/internal/serve"
)

func BenchmarkServeWarm(b *testing.B) {
	st, err := repro.OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	srv := serve.New(serve.Config{Store: st})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	specs := []repro.ScenarioSpec{
		{Model: "wifi", Algorithm: "BEB", N: 100},
		{Model: "wifi", Algorithm: "LLB", N: 100},
		{Model: "wifi", Algorithm: "STB", N: 100},
	}
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	body, err := json.Marshal(struct {
		Scenarios []repro.ScenarioSpec `json:"scenarios"`
		Seeds     []uint64             `json:"seeds"`
	}{specs, seeds})
	if err != nil {
		b.Fatal(err)
	}

	post := func() int {
		resp, err := http.Post(hs.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("HTTP %d: %s", resp.StatusCode, data)
		}
		return bytes.Count(data, []byte{'\n'})
	}

	want := len(specs) * len(seeds)
	if got := post(); got != want { // populate the store; the rest is replay
		b.Fatalf("cold sweep returned %d cells, want %d", got, want)
	}
	// Collect the cold sweep's simulation garbage now: a warm post costs
	// about a millisecond, so at -benchtime 1x (the CI gate) that GC debt
	// would otherwise nearly double the one measured replay.
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := post(); got != want {
			b.Fatalf("warm sweep returned %d cells, want %d", got, want)
		}
	}
	b.StopTimer()
	if s := st.Stats(); s.Misses != int64(want) {
		b.Fatalf("store misses = %d, want %d (warm requests must not simulate)", s.Misses, want)
	}
	b.ReportMetric(float64(want), "cells/req")
}
