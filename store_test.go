package repro

// Tests for the content-addressed result store: fingerprint stability and
// canonicalization, bit-identical replay with zero simulator invocations,
// crash recovery, and concurrent writers deduplicated by singleflight.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mac"
	"repro/internal/phy"
)

// countingModel wraps a Model and counts simulator invocations, so tests
// can assert that warm-store sweeps never simulate.
type countingModel struct {
	inner Model
	runs  *atomic.Int64
}

func (m countingModel) Name() string { return m.inner.Name() }

func (m countingModel) run(ctx context.Context, s Scenario, o options) (Result, SimStats, error) {
	m.runs.Add(1)
	return m.inner.run(ctx, s, o)
}

// --- Fingerprint ------------------------------------------------------------

// TestFingerprintGolden pins fingerprints across processes and releases:
// these exact strings identify records in every store ever written, so a
// diff here is a cache-invalidation event and must come with a
// storeSchemaVersion bump (which changes every fingerprint at once).
func TestFingerprintGolden(t *testing.T) {
	cases := []struct {
		name string
		s    Scenario
		want string
	}{
		{"wifi-batch", Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 30},
			"v1:a95031db10bddfaf42d5066df5d761121c59c25f4a1e957fcb68867a6c4b20be"},
		{"abstract-batch", Scenario{Model: Abstract(), Algorithm: MustAlgorithm("STB"), N: 100},
			"v1:22bca47b6673bfd5e23ae1992cde7d10df3f09e89c74c082459e59fb3815393e"},
		{"abstract-unaligned-batch", Scenario{Model: AbstractUnaligned(), Algorithm: MustAlgorithm("BEB"), N: 30},
			"v1:e5b8e4ce780098933beb601f033720f0523338d2a62c4bf84c86ee8c4ea00a72"},
		{"tree", Scenario{Model: Abstract(), N: 50, Workload: TreeWorkload{}},
			"v1:30a2d6150613410770896a6a640718f2d5c5bf587c8d4e1b2ccc40a200ee4ca2"},
		{"best-of-3", Scenario{Model: WiFi(), N: 50, Workload: BestOfKWorkload{K: 3}},
			"v1:7e400222f5e8d9a4585b89f897f076f1bbaaa8a90c19097557639ea2c6181121"},
		{"continuous", Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 20,
			Workload: ContinuousWorkload{Arrivals: Poisson(100), Horizon: time.Second}},
			"v1:870bd7a7c17328f45ac65e34eaca37e8802666016ae7519db6a03edd046591a5"},
		{"wifi-tweaked", Scenario{Model: WiFi(), Algorithm: MustAlgorithm("LLB"), N: 30,
			Options: []Option{WithPayload(1024), WithRTSCTS(), WithConfig(func(c *MACConfig) { c.CWMin = 16 })}},
			"v1:bd4b46df84e7cd5ab6f25e2d0eba1fd6a08bca093eed74b998d9cc643431d1e3"},
	}
	for _, tc := range cases {
		got, err := tc.s.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: fingerprint %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestFingerprintCanonicalization checks what the address must and must not
// depend on.
func TestFingerprintCanonicalization(t *testing.T) {
	fp := func(s Scenario) string {
		t.Helper()
		v, err := s.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	base := Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 30}

	same := []struct {
		name string
		s    Scenario
	}{
		{"seed is the record key, not part of the address", base.WithOptions(WithSeed(99))},
		{"trace recording does not affect the Result", base.WithOptions(WithTrace(nil))},
		{"nil workload means SingleBatch", Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 30, Workload: SingleBatch{}}},
	}
	for _, tc := range same {
		if fp(tc.s) != fp(base) {
			t.Errorf("%s: fingerprint changed", tc.name)
		}
	}

	diff := []struct {
		name string
		s    Scenario
	}{
		{"n", Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 31}},
		{"algorithm", Scenario{Model: WiFi(), Algorithm: MustAlgorithm("LLB"), N: 30}},
		{"model", Scenario{Model: Abstract(), Algorithm: MustAlgorithm("BEB"), N: 30}},
		{"unaligned model", Scenario{Model: AbstractUnaligned(), Algorithm: MustAlgorithm("BEB"), N: 30}},
		{"payload", base.WithOptions(WithPayload(1024))},
		{"rtscts", base.WithOptions(WithRTSCTS())},
		{"raw seed consumption", base.WithOptions(WithRawSeed())},
		{"config tweak", base.WithOptions(WithConfig(func(c *MACConfig) { c.AckTimeout = 80 * time.Microsecond }))},
		{"layout", base.WithOptions(WithConfig(func(c *MACConfig) { c.Layout = phy.NearFarLayout }))},
		{"workload", Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 30, Workload: BestOfKWorkload{K: 3}}},
	}
	seen := map[string]string{fp(base): "base"}
	for _, tc := range diff {
		v := fp(tc.s)
		if prev, dup := seen[v]; dup {
			t.Errorf("%s: fingerprint collides with %s", tc.name, prev)
		}
		seen[v] = tc.name
	}

	// The abstract model has no MAC, so MAC-only options are canonicalized
	// away rather than splitting the address.
	abs := Scenario{Model: Abstract(), Algorithm: MustAlgorithm("BEB"), N: 30}
	if fp(abs) != fp(abs.WithOptions(WithPayload(1024), WithRTSCTS())) {
		t.Error("MAC-only options changed an abstract scenario's fingerprint")
	}
	// Tree and best-of-k prescribe their own algorithm; the unused field
	// must not split the address.
	tree := Scenario{Model: Abstract(), N: 50, Workload: TreeWorkload{}}
	if fp(tree) != fp(Scenario{Model: Abstract(), Algorithm: MustAlgorithm("BEB"), N: 50, Workload: TreeWorkload{}}) {
		t.Error("ignored Algorithm changed a tree scenario's fingerprint")
	}
}

func TestFingerprintErrors(t *testing.T) {
	if _, err := (Scenario{Algorithm: MustAlgorithm("BEB"), N: 10}).Fingerprint(); err == nil {
		t.Error("nil model fingerprinted")
	}
	custom := Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 10,
		Options: []Option{WithConfig(func(c *MACConfig) { c.Radio.PathLoss = customPathLoss{} })}}
	if _, err := custom.Fingerprint(); err == nil {
		t.Error("custom path-loss model fingerprinted; it has no canonical encoding")
	}
}

type customPathLoss struct{}

func (customPathLoss) Loss(float64) phy.DB { return 0 }

// TestFingerprintConfigFieldsPinned fails when mac.Config or phy.Config
// grows a field, forcing writeMACConfig (and storeSchemaVersion) to be
// updated in the same change — otherwise the new knob would silently not
// participate in content addressing.
func TestFingerprintConfigFieldsPinned(t *testing.T) {
	if n := reflect.TypeOf(mac.Config{}).NumField(); n != 18 {
		t.Errorf("mac.Config has %d fields, fingerprint encodes 18: update writeMACConfig and bump storeSchemaVersion", n)
	}
	if n := reflect.TypeOf(phy.Config{}).NumField(); n != 7 {
		t.Errorf("phy.Config has %d fields, fingerprint encodes 7: update writeMACConfig and bump storeSchemaVersion", n)
	}
}

// --- Store round trip -------------------------------------------------------

// storeGrid is a small mixed grid covering every result shape the store
// must round-trip: wifi batch (stations, decomposition), abstract batch,
// tree, best-of-k, and continuous traffic.
func storeGrid(wifi, abstract Model) []Scenario {
	return []Scenario{
		{Model: wifi, Algorithm: MustAlgorithm("BEB"), N: 20},
		{Model: abstract, Algorithm: MustAlgorithm("STB"), N: 40},
		{Model: abstract, N: 30, Workload: TreeWorkload{}},
		{Model: wifi, N: 20, Workload: BestOfKWorkload{K: 3}},
		{Model: wifi, Algorithm: MustAlgorithm("BEB"), N: 5,
			Workload: ContinuousWorkload{Arrivals: Poisson(200), Horizon: 50 * time.Millisecond}},
	}
}

func drain(t *testing.T, ch <-chan Cell) []Cell {
	t.Helper()
	var cells []Cell
	for c := range ch {
		if c.Err != nil {
			t.Fatalf("cell (%d,%d): %v", c.ScenarioIndex, c.SeedIndex, c.Err)
		}
		cells = append(cells, c)
	}
	return cells
}

// TestSweepCachedBitIdentical is the acceptance test: a warm sweep replays
// every cell bit-identically while invoking the simulator zero times, and
// the store survives a reopen.
func TestSweepCachedBitIdentical(t *testing.T) {
	var runs atomic.Int64
	grid := storeGrid(countingModel{WiFi(), &runs}, countingModel{Abstract(), &runs})
	seeds := []uint64{1, 2, 3}
	dir := t.TempDir()

	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := Engine{Store: st}
	cold := drain(t, eng.Sweep(context.Background(), grid, seeds))
	wantCells := len(grid) * len(seeds)
	if got := runs.Load(); got != int64(wantCells) {
		t.Fatalf("cold sweep simulated %d cells, want %d", got, wantCells)
	}
	if s := st.Stats(); s.Hits != 0 || s.Misses != int64(wantCells) || s.Records != wantCells {
		t.Fatalf("cold stats %+v", s)
	}

	// Warm replay through the same open store.
	warm := drain(t, eng.Sweep(context.Background(), grid, seeds))
	if got := runs.Load(); got != int64(wantCells) {
		t.Fatalf("warm sweep simulated %d extra cells, want 0", got-int64(wantCells))
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm cells differ from cold cells")
	}
	if s := st.Stats(); s.Hits != int64(wantCells) || s.WriteErr != nil {
		t.Fatalf("warm stats %+v", s)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A different process (fresh store handle, fresh engine) replays too.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	replay := drain(t, (&Engine{Store: st2}).Sweep(context.Background(), grid, seeds))
	if got := runs.Load(); got != int64(wantCells) {
		t.Fatalf("reopened store simulated %d extra cells, want 0", got-int64(wantCells))
	}
	if !reflect.DeepEqual(cold, replay) {
		t.Fatal("replay after reopen differs from cold cells")
	}
}

// TestAggregateCachedReport: a warm Aggregate produces a bit-identical
// Report without simulating.
func TestAggregateCachedReport(t *testing.T) {
	var runs atomic.Int64
	wifi := countingModel{WiFi(), &runs}
	grid := []Scenario{
		{Model: wifi, Algorithm: MustAlgorithm("BEB"), N: 20},
		{Model: wifi, Algorithm: MustAlgorithm("LLB"), N: 20},
	}
	seeds := Seeds(7, 5)
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := Engine{Store: st}

	cold, err := eng.Aggregate(context.Background(), grid, seeds, MakespanSlots(), TotalTime())
	if err != nil {
		t.Fatal(err)
	}
	simulated := runs.Load()
	warm, err := eng.Aggregate(context.Background(), grid, seeds, MakespanSlots(), TotalTime())
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != simulated {
		t.Fatalf("warm aggregate simulated %d cells, want 0", got-simulated)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm report differs from cold report")
	}
}

// TestStoreRecoversFromTornTail: killing a run mid-append loses at most the
// torn record; the rerun replays the intact ones and re-simulates the rest.
func TestStoreRecoversFromTornTail(t *testing.T) {
	var runs atomic.Int64
	grid := []Scenario{{Model: countingModel{WiFi(), &runs}, Algorithm: MustAlgorithm("BEB"), N: 15}}
	seeds := []uint64{1, 2, 3, 4}
	dir := t.TempDir()

	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := Engine{Workers: 1, Store: st}
	cold := drain(t, eng.Sweep(context.Background(), grid, seeds))
	st.Close()

	// Tear the last record: chop a few bytes off the log, leaving the final
	// line without its newline — exactly what SIGKILL mid-write leaves.
	path := filepath.Join(dir, "results.jsonl")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Stats().Records; got != len(seeds)-1 {
		t.Fatalf("recovered %d records, want %d", got, len(seeds)-1)
	}
	before := runs.Load()
	eng2 := Engine{Workers: 1, Store: st2}
	warm := drain(t, eng2.Sweep(context.Background(), grid, seeds))
	if got := runs.Load() - before; got != 1 {
		t.Fatalf("resume simulated %d cells, want exactly the torn one", got)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("resumed cells differ from the cold run")
	}
	if got := st2.Stats().Records; got != len(seeds) {
		t.Fatalf("store has %d records after resume, want %d", got, len(seeds))
	}
}

// TestConcurrentSweepsShareOneStore: two engines sweeping the same grid
// concurrently through one store stay correct, and singleflight ensures
// each unique cell is simulated exactly once across both.
func TestConcurrentSweepsShareOneStore(t *testing.T) {
	var runs atomic.Int64
	grid := storeGrid(countingModel{WiFi(), &runs}, countingModel{Abstract(), &runs})
	seeds := []uint64{3, 4, 5, 6}
	wantCells := len(grid) * len(seeds)

	// Reference cells from an uncached serial run.
	var ref Engine
	want := drain(t, ref.Sweep(context.Background(), grid, seeds))
	base := runs.Load()

	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	results := make([][]Cell, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eng := Engine{Store: st}
			var cells []Cell
			for c := range eng.Sweep(context.Background(), grid, seeds) {
				cells = append(cells, c)
			}
			results[i] = cells
		}(i)
	}
	wg.Wait()

	if got := runs.Load() - base; got != int64(wantCells) {
		t.Fatalf("two concurrent sweeps simulated %d cells, want %d (each unique cell exactly once)", got, wantCells)
	}
	for i, cells := range results {
		for _, c := range cells {
			if c.Err != nil {
				t.Fatalf("sweep %d cell (%d,%d): %v", i, c.ScenarioIndex, c.SeedIndex, c.Err)
			}
		}
		if !reflect.DeepEqual(cells, want) {
			t.Fatalf("sweep %d cells differ from the uncached reference", i)
		}
	}
	if s := st.Stats(); s.Records != wantCells || s.WriteErr != nil {
		t.Fatalf("store stats %+v, want %d records", s, wantCells)
	}
}

// TestStoreLeaderPanicReleasesFollowers: a singleflight leader whose run
// panics must neither strand the callers waiting on its cell nor hand them
// its zero Result as a hit, and must leave no in-flight entry behind.
func TestStoreLeaderPanicReleasesFollowers(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const fp, seed = "v1:leader-panic", 7

	entered, unblock := make(chan struct{}), make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		st.do(fp, seed, true, func() (Result, error) {
			close(entered)
			<-unblock
			panic("leader died")
		}, nil)
	}()
	<-entered

	// The follower joins the leader's flight; its own run fails, so the
	// error proves it simulated itself rather than replaying a phantom hit.
	followerErr := errors.New("follower simulated")
	followed := make(chan error, 1)
	go func() {
		_, _, err := st.do(fp, seed, true, func() (Result, error) { return Result{}, followerErr }, nil)
		followed <- err
	}()
	// Give the follower time to park on the flight. A follower that arrives
	// after the panic leads instead, and every assertion below holds either
	// way; the pause only makes the stranding case the one exercised.
	time.Sleep(20 * time.Millisecond)
	close(unblock)

	if p := <-recovered; p == nil {
		t.Fatal("leader's panic was swallowed")
	}
	select {
	case err := <-followed:
		if !errors.Is(err, followerErr) {
			t.Fatalf("follower returned %v, want its own simulation's error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower stranded by a panicked leader")
	}

	want := Result{Batch: &BatchResult{N: 1}}
	simulated := false
	got, _, err := st.do(fp, seed, true, func() (Result, error) { simulated = true; return want, nil }, nil)
	if err != nil || !simulated || !reflect.DeepEqual(got, want) {
		t.Fatalf("third caller: simulated=%t got %+v err %v", simulated, got, err)
	}
	if n := st.Stats().InFlight; n != 0 {
		t.Fatalf("%d in-flight entries left behind", n)
	}
}

// TestNonCanonicalRecordResimulated: a record line hand-edited into JSON
// that still parses but is not the canonical envelope the store writes
// (keys reordered, spaces added) is a miss, never a hit — SweepJSON does
// not splice it into a response. The engine simulates the cell again and
// its canonical record supersedes the edited line.
func TestNonCanonicalRecordResimulated(t *testing.T) {
	var runs atomic.Int64
	grid := []Scenario{{Model: countingModel{WiFi(), &runs}, Algorithm: MustAlgorithm("BEB"), N: 10}}
	seeds := []uint64{1, 2, 3}
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := drain(t, (&Engine{Store: st}).Sweep(context.Background(), grid, seeds))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, storeLogName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	for i, format := range []string{
		`{"seed":%[2]d,"fp":%[1]s,"result":%[3]s}`,
		`{"fp": %s, "seed": %d, "result": %s}`,
	} {
		var rec struct {
			FP     string          `json:"fp"`
			Seed   uint64          `json:"seed"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(lines[i], &rec); err != nil {
			t.Fatal(err)
		}
		fp, _ := json.Marshal(rec.FP)
		lines[i] = fmt.Appendf(nil, format+"\n", fp, rec.Seed, rec.Result)
	}
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err = OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if s := st.Stats(); s.Records != len(seeds) || s.Corrupt != 0 {
		t.Fatalf("reopened stats %+v, want the edited lines indexed", s)
	}
	before := runs.Load()
	var i int
	for c := range (&Engine{Store: st}).SweepJSON(context.Background(), grid, seeds) {
		want, err := json.Marshal(cold[i].Result)
		if err != nil {
			t.Fatal(err)
		}
		if c.Err != nil || !bytes.Equal(c.JSON, want) {
			t.Fatalf("cell %d: err %v, JSON %.60s, want the canonical encoding", i, c.Err, c.JSON)
		}
		i++
	}
	if got := runs.Load() - before; got != 2 {
		t.Fatalf("sweep over two edited records simulated %d cells, want 2", got)
	}
	if s := st.Stats(); s.Stale != 2 || s.Misses != 2 || s.Hits != 1 {
		t.Fatalf("stats %+v, want both edited lines superseded", s)
	}
	before = runs.Load()
	if warm := drain(t, (&Engine{Store: st}).Sweep(context.Background(), grid, seeds)); !reflect.DeepEqual(warm, cold) {
		t.Fatal("cells after supersession differ from the cold run")
	}
	if got := runs.Load() - before; got != 0 {
		t.Fatalf("sweep after supersession simulated %d cells, want 0", got)
	}
}

// --- Open registry ----------------------------------------------------------

// TestOpenStoreRegistry enforces the documented invariant: one process, one
// handle per store directory. A second OpenStore of the same dir (under any
// spelling of the path) fails until the first handle is closed.
func TestOpenStoreRegistry(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir); err == nil {
		t.Fatal("second OpenStore of the same dir succeeded")
	}
	// An alias of the same directory is the same store.
	alias := filepath.Join(dir, "..", filepath.Base(dir))
	if _, err := OpenStore(alias); err == nil {
		t.Fatalf("OpenStore of alias %s succeeded while %s is open", alias, dir)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("reopen after Close failed: %v", err)
	}
	defer st2.Close()
	// A different directory is unaffected.
	other, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
}

// --- Engine.Admit -----------------------------------------------------------

// TestAdmitGatesSimulationsOnly asserts the admission contract: Admit is
// called exactly once per simulator invocation — cold cells admit, store
// replays and singleflight followers do not — and its error fails the cell.
func TestAdmitGatesSimulationsOnly(t *testing.T) {
	var runs, admits atomic.Int64
	grid := storeGrid(countingModel{WiFi(), &runs}, countingModel{Abstract(), &runs})
	seeds := []uint64{3, 4}
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := Engine{Store: st, Admit: func(ctx context.Context) (func(), error) {
		admits.Add(1)
		return func() {}, nil
	}}

	cold := drain(t, eng.Sweep(context.Background(), grid, seeds))
	cells := int64(len(grid) * len(seeds))
	if admits.Load() != cells || runs.Load() != cells {
		t.Fatalf("cold sweep: admits=%d runs=%d, want %d each", admits.Load(), runs.Load(), cells)
	}

	warm := drain(t, eng.Sweep(context.Background(), grid, seeds))
	if admits.Load() != cells || runs.Load() != cells {
		t.Fatalf("warm sweep admitted or simulated: admits=%d runs=%d, want %d each", admits.Load(), runs.Load(), cells)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("admitted cells differ from replayed cells")
	}

	boom := errors.New("budget exhausted")
	denied := Engine{Admit: func(ctx context.Context) (func(), error) { return nil, boom }}
	for c := range denied.Sweep(context.Background(), grid[:1], seeds[:1]) {
		if !errors.Is(c.Err, boom) {
			t.Fatalf("denied cell error = %v, want %v", c.Err, boom)
		}
	}
}

// TestAdmitBoundsConcurrency runs a wide sweep through a budget-1 Admit
// hook and asserts no two simulations ever overlap, whatever Workers says.
func TestAdmitBoundsConcurrency(t *testing.T) {
	var cur, peak atomic.Int64
	sem := make(chan struct{}, 1)
	eng := Engine{Workers: 8, Admit: func(ctx context.Context) (func(), error) {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if c := cur.Add(1); c > peak.Load() {
			peak.Store(c)
		}
		return func() {
			cur.Add(-1)
			<-sem
		}, nil
	}}
	grid := []Scenario{{Model: Abstract(), Algorithm: MustAlgorithm("BEB"), N: 200}}
	drain(t, eng.Sweep(context.Background(), grid, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}))
	if p := peak.Load(); p != 1 {
		t.Fatalf("peak concurrent simulations = %d, want 1", p)
	}
}
