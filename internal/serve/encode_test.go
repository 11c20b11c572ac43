package serve

// The splice contract of EncodeCell: a cell carrying its stored bytes
// (Cell.JSON, from Engine.SweepJSON) encodes to exactly the line the
// marshal path writes for the decoded Result, for every result shape. Every
// line is also checked against an independent encoder, json.Marshal of
// cellWire.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// cellWire is one NDJSON line of a sweep response as a struct: the cell's
// grid position and seed, then either the Result or the cell error.
// json.Marshal of it is the reference EncodeCell's hand-built lines must
// match byte for byte.
type cellWire struct {
	Scenario int           `json:"scenario"`
	Trial    int           `json:"trial"`
	Seed     uint64        `json:"seed"`
	Result   *repro.Result `json:"result,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// marshalCell encodes c through cellWire, decoding a spliced cell's stored
// bytes first.
func marshalCell(t *testing.T, c repro.Cell) []byte {
	t.Helper()
	cw := cellWire{Scenario: c.ScenarioIndex, Trial: c.SeedIndex, Seed: c.Seed}
	switch {
	case c.Err != nil:
		cw.Error = c.Err.Error()
	case c.JSON != nil:
		cw.Result = new(repro.Result)
		if err := json.Unmarshal(c.JSON, cw.Result); err != nil {
			t.Fatal(err)
		}
	default:
		cw.Result = &c.Result
	}
	b, err := json.Marshal(cw)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// encodeAll drains a sweep into its NDJSON lines. spliced says whether the
// successful cells must carry Cell.JSON (a store-backed SweepJSON) or must
// not (Sweep, or SweepJSON without a store); failed cells never do.
func encodeAll(t *testing.T, ch <-chan repro.Cell, spliced bool) [][]byte {
	t.Helper()
	var lines [][]byte
	for c := range ch {
		if got, want := c.JSON != nil, spliced && c.Err == nil; got != want {
			t.Fatalf("cell (%d,%d): JSON set = %t, want %t (err %v)", c.ScenarioIndex, c.SeedIndex, got, want, c.Err)
		}
		if c.JSON != nil && (c.Result != repro.Result{}) {
			t.Fatalf("cell (%d,%d) carries both JSON and a Result", c.ScenarioIndex, c.SeedIndex)
		}
		line, err := EncodeCell(c)
		if err != nil {
			t.Fatal(err)
		}
		if want := marshalCell(t, c); !bytes.Equal(line, want) {
			t.Fatalf("cell (%d,%d): EncodeCell\n %s differs from json.Marshal\n %s", c.ScenarioIndex, c.SeedIndex, line, want)
		}
		lines = append(lines, line)
	}
	return lines
}

func sameLines(t *testing.T, name string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, want %d", name, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: line %d differs:\n got %.120s\nwant %.120s", name, i, got[i], want[i])
		}
	}
}

// TestEncodeCellSpliceMatchesMarshal covers a batch, a best-of-k, a
// continuous-traffic and a failed cell, spliced from the bytes a miss
// wrote (cold), the bytes a hit read (warm) and the bytes a singleflight
// leader handed its followers — each byte-identical to the marshal path of
// a storeless Sweep. A storeless SweepJSON sets no JSON and marshals.
func TestEncodeCellSpliceMatchesMarshal(t *testing.T) {
	grid := []repro.Scenario{
		{Model: repro.WiFi(), Algorithm: repro.MustAlgorithm("BEB"), N: 8},
		{Model: repro.WiFi(), N: 8, Workload: repro.BestOfKWorkload{K: 3}},
		{Model: repro.WiFi(), Algorithm: repro.MustAlgorithm("BEB"), N: 4,
			Workload: repro.ContinuousWorkload{Arrivals: repro.Poisson(200), Horizon: 20 * time.Millisecond}},
		// Valid, but the abstract model has no best-of-k: the cell fails.
		{Model: repro.Abstract(), N: 8, Workload: repro.BestOfKWorkload{K: 3}},
	}
	seeds := repro.Seeds(3, 2)
	cells := len(grid) * len(seeds)
	ctx := context.Background()

	for c := range (&repro.Engine{}).Sweep(ctx, grid, seeds) {
		r := c.Result
		if shaped := [...]bool{r.Batch != nil, r.BestOfK != nil, r.Traffic != nil, c.Err != nil}[c.ScenarioIndex]; !shaped {
			t.Fatalf("grid row %d does not produce its intended result shape (err %v)", c.ScenarioIndex, c.Err)
		}
	}
	want := encodeAll(t, (&repro.Engine{}).Sweep(ctx, grid, seeds), false)
	sameLines(t, "storeless SweepJSON", encodeAll(t, (&repro.Engine{}).SweepJSON(ctx, grid, seeds), false), want)

	st, err := repro.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	// The leader engine parks every cell in Admit — its flight already
	// registered — until the follower sweep has started, so the follower's
	// cells join the leaders' flights.
	var admitted, followerSims atomic.Int64
	release := make(chan struct{})
	leader := &repro.Engine{Workers: cells, Store: st, Admit: func(context.Context) (func(), error) {
		admitted.Add(1)
		<-release
		return func() {}, nil
	}}
	follower := &repro.Engine{Workers: cells, Store: st, Admit: func(context.Context) (func(), error) {
		followerSims.Add(1)
		return func() {}, nil
	}}
	coldCh := leader.SweepJSON(ctx, grid, seeds)
	for deadline := time.Now().Add(10 * time.Second); admitted.Load() < int64(cells); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d leader cells reached Admit", admitted.Load(), cells)
		}
	}
	followCh := follower.SweepJSON(ctx, grid, seeds)
	// Give the follower's cells time to park. One that arrives after its
	// leader finished replays the record instead; the assertions hold
	// either way, the pause only makes the follower case the one exercised.
	time.Sleep(20 * time.Millisecond)
	close(release)
	sameLines(t, "cold SweepJSON", encodeAll(t, coldCh, true), want)
	sameLines(t, "follower SweepJSON", encodeAll(t, followCh, true), want)
	sameLines(t, "warm SweepJSON", encodeAll(t, leader.SweepJSON(ctx, grid, seeds), true), want)

	// Error messages are escaped as json.Marshal escapes them, HTML-safe.
	failed := make(chan repro.Cell, 1)
	failed <- repro.Cell{ScenarioIndex: 1, SeedIndex: 2, Seed: 3, Err: errors.New(`bad "quote" <tag> & amp`)}
	close(failed)
	encodeAll(t, failed, false)

	// Failed cells are never stored, so each run retries them; nothing else
	// simulates twice.
	if got := followerSims.Load(); got != int64(len(seeds)) {
		t.Fatalf("follower simulated %d cells, want only its %d failing ones", got, len(seeds))
	}
	if got := admitted.Load(); got != int64(cells+len(seeds)) {
		t.Fatalf("leader simulated %d cells, want %d cold plus %d failing warm ones", got, cells, len(seeds))
	}
}
