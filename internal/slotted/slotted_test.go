package slotted

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/backoff"
	"repro/internal/rng"
)

// runBatch runs the aligned kernel, failing t if it reports an error.
func runBatch(t testing.TB, n int, f backoff.Factory, g *rng.Source) Result {
	t.Helper()
	res, err := RunBatch(n, f, g)
	if err != nil {
		t.Fatalf("RunBatch(%d): %v", n, err)
	}
	return res
}

// runUnaligned runs the unaligned kernel, failing t if it reports an error.
func runUnaligned(t testing.TB, n int, f backoff.Factory, g *rng.Source) Result {
	t.Helper()
	res, err := RunBatchUnaligned(n, f, g)
	if err != nil {
		t.Fatalf("RunBatchUnaligned(%d): %v", n, err)
	}
	return res
}

func checkInvariants(t *testing.T, res Result, n int) {
	t.Helper()
	if res.N != n {
		t.Fatalf("N = %d, want %d", res.N, n)
	}
	if len(res.FinishSlots) != n {
		t.Fatalf("FinishSlots length %d", len(res.FinishSlots))
	}
	for i, s := range res.FinishSlots {
		if s < 1 {
			t.Fatalf("packet %d never finished (slot %d)", i, s)
		}
		if s > res.CWSlots {
			t.Fatalf("packet %d finished at %d > makespan %d", i, s, res.CWSlots)
		}
	}
	if res.SingletonSlots != n {
		t.Fatalf("SingletonSlots = %d, want %d (every packet exactly once)", res.SingletonSlots, n)
	}
	if res.CWSlots < n {
		t.Fatalf("makespan %d < n = %d: pigeonhole violated", res.CWSlots, n)
	}
	if res.HalfSlots < 1 || res.HalfSlots > res.CWSlots {
		t.Fatalf("HalfSlots %d out of range (makespan %d)", res.HalfSlots, res.CWSlots)
	}
}

func TestRunBatchInvariantsAllAlgorithms(t *testing.T) {
	g := rng.New(1)
	for _, spec := range backoff.PaperAlgorithmNames() {
		f, _ := backoff.Registered(spec)
		for _, n := range []int{1, 2, 3, 10, 50, 150} {
			res := runBatch(t, n, f, g.Derive(f().Name()))
			checkInvariants(t, res, n)
		}
	}
}

func TestRunBatchUnalignedInvariants(t *testing.T) {
	g := rng.New(2)
	for _, spec := range backoff.PaperAlgorithmNames() {
		f, _ := backoff.Registered(spec)
		for _, n := range []int{1, 2, 10, 80} {
			res := runUnaligned(t, n, f, g.Derive(f().Name()))
			checkInvariants(t, res, n)
		}
	}
}

func TestSinglePacketFinishesFirstWindow(t *testing.T) {
	g := rng.New(3)
	res := runBatch(t, 1, backoff.NewBEB, g)
	if res.CWSlots != 1 || res.Collisions != 0 || res.Windows != 1 {
		t.Fatalf("single packet: %+v", res)
	}
}

func TestTwoPacketsAlwaysCollideInWindowOne(t *testing.T) {
	// BEB's first window has size 1, so both packets must collide there.
	g := rng.New(4)
	for trial := 0; trial < 20; trial++ {
		res := runBatch(t, 2, backoff.NewBEB, g.Derive(string(rune(trial))))
		if res.Collisions < 1 {
			t.Fatalf("trial %d: 2 packets in window of size 1 did not collide", trial)
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	a := runBatch(t, 50, backoff.NewBEB, rng.New(99))
	b := runBatch(t, 50, backoff.NewBEB, rng.New(99))
	if a.CWSlots != b.CWSlots || a.Collisions != b.Collisions {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestHalfSlotsMatchesFinishOrder(t *testing.T) {
	g := rng.New(5)
	err := quick.Check(func(seed uint32, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		res := runBatch(t, n, backoff.NewBEB, g.Derive(string(rune(seed))))
		// Count packets finishing at or before HalfSlots: must be exactly
		// ceil(n/2) ... or more only if ties share the boundary slot, which
		// cannot happen (one success per slot).
		count := 0
		for _, s := range res.FinishSlots {
			if s <= res.HalfSlots {
				count++
			}
		}
		return count == (n+1)/2
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSlotAccounting(t *testing.T) {
	// Within the makespan, singleton and collision slots are disjoint, so
	// together they fill at most CWSlots; the rest are empty.
	g := rng.New(6)
	for _, spec := range backoff.PaperAlgorithmNames() {
		f, _ := backoff.Registered(spec)
		res := runBatch(t, 60, f, g.Derive(f().Name()))
		if total := res.SingletonSlots + res.Collisions; total > res.CWSlots {
			t.Fatalf("%s: slot accounting %d > makespan %d", f().Name(), total, res.CWSlots)
		}
	}
}

// TestExpectedOrderingCWSlots reproduces the qualitative content of Figure 5
// in miniature: with n = 150, the median CW slots should order
// STB < LB,LLB < BEB (the newer algorithms beat BEB on this metric).
func TestExpectedOrderingCWSlots(t *testing.T) {
	const n, trials = 150, 31
	g := rng.New(7)
	med := map[string]int{}
	for _, spec := range backoff.PaperAlgorithmNames() {
		f, _ := backoff.Registered(spec)
		name := f().Name()
		vals := make([]int, trials)
		for tr := 0; tr < trials; tr++ {
			vals[tr] = runBatch(t, n, f, g.Derive(name+string(rune(tr)))).CWSlots
		}
		med[name] = medianInt(vals)
	}
	if !(med["STB"] < med["BEB"]) {
		t.Errorf("STB median CW slots %d not below BEB %d", med["STB"], med["BEB"])
	}
	if !(med["LB"] < med["BEB"]) {
		t.Errorf("LB median CW slots %d not below BEB %d", med["LB"], med["BEB"])
	}
	if !(med["LLB"] < med["BEB"]) {
		t.Errorf("LLB median CW slots %d not below BEB %d", med["LLB"], med["BEB"])
	}
}

// TestExpectedOrderingCollisions reproduces the core of Table III in
// miniature: at n = 150 the slower-backoff algorithms LB and LLB suffer
// more disjoint collisions than BEB.
func TestExpectedOrderingCollisions(t *testing.T) {
	const n, trials = 150, 31
	g := rng.New(8)
	med := map[string]int{}
	for _, spec := range backoff.PaperAlgorithmNames() {
		f, _ := backoff.Registered(spec)
		name := f().Name()
		vals := make([]int, trials)
		for tr := 0; tr < trials; tr++ {
			vals[tr] = runBatch(t, n, f, g.Derive(name+string(rune(tr)))).Collisions
		}
		med[name] = medianInt(vals)
	}
	if !(med["LB"] > med["BEB"]) {
		t.Errorf("LB collisions %d not above BEB %d", med["LB"], med["BEB"])
	}
	if !(med["LLB"] > med["BEB"]) {
		t.Errorf("LLB collisions %d not above BEB %d", med["LLB"], med["BEB"])
	}
}

func TestCollisionsScaleRoughlyLinearlyForBEB(t *testing.T) {
	// Claim 1: BEB has O(n) collisions. Check the ratio collisions/n stays
	// bounded as n grows by 16x.
	g := rng.New(9)
	ratio := func(n int) float64 {
		const trials = 9
		vals := make([]int, trials)
		for tr := 0; tr < trials; tr++ {
			vals[tr] = runBatch(t, n, backoff.NewBEB, g.Derive(string(rune(n*100+tr)))).Collisions
		}
		return float64(medianInt(vals)) / float64(n)
	}
	r1, r2 := ratio(500), ratio(8000)
	if r2 > 2.5*r1 {
		t.Fatalf("BEB collisions/n grew from %.2f to %.2f over 16x n: not O(n)", r1, r2)
	}
}

func TestUnalignedStillFinishesEveryone(t *testing.T) {
	g := rng.New(10)
	res := runUnaligned(t, 120, backoff.NewSTB, g)
	for i, s := range res.FinishSlots {
		if s == 0 {
			t.Fatalf("unaligned STB: packet %d unfinished", i)
		}
	}
}

// TestFinishSlotsAscending pins the FinishSlots contract every kernel
// shares: one entry per packet, in finishing order.
func TestFinishSlotsAscending(t *testing.T) {
	g := rng.New(12)
	for _, spec := range backoff.PaperAlgorithmNames() {
		f, _ := backoff.Registered(spec)
		name := f().Name()
		for _, res := range []Result{
			runBatch(t, 200, f, g.Derive("aligned"+name)),
			runUnaligned(t, 200, f, g.Derive("unaligned"+name)),
			RunTreeBatch(200, g.Derive("tree"+name)),
		} {
			if !slices.IsSorted(res.FinishSlots) {
				t.Fatalf("%s: FinishSlots not ascending: %v", name, res.FinishSlots)
			}
		}
	}
}

// TestNoProgressIsAnError drives both windowed kernels with a schedule that
// can never separate two packets: each gives up with ErrNoProgress.
func TestNoProgressIsAnError(t *testing.T) {
	fixed1 := func() backoff.Policy { return backoff.NewFixed(1) }
	if _, err := RunBatch(2, fixed1, rng.New(13)); !errors.Is(err, ErrNoProgress) {
		t.Errorf("RunBatch: err = %v, want ErrNoProgress", err)
	}
	if _, err := RunBatchUnaligned(2, fixed1, rng.New(13)); !errors.Is(err, ErrNoProgress) {
		t.Errorf("RunBatchUnaligned: err = %v, want ErrNoProgress", err)
	}
}

func TestRunBatchPanicsOnZeroN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunBatch(0) did not panic")
		}
	}()
	RunBatch(0, backoff.NewBEB, rng.New(1))
}

func TestHeapOrdering(t *testing.T) {
	h := &attemptHeap{}
	g := rng.New(11)
	for i := 0; i < 500; i++ {
		h.push(attempt{slot: g.Intn(100), id: i})
	}
	last := -1
	for h.len() > 0 {
		a := h.pop()
		if a.slot < last {
			t.Fatalf("heap popped out of order: %d after %d", a.slot, last)
		}
		last = a.slot
	}
}

func medianInt(xs []int) int {
	s := append([]int(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

func BenchmarkRunBatchBEB150(b *testing.B) {
	g := rng.New(1)
	for i := 0; i < b.N; i++ {
		RunBatch(150, backoff.NewBEB, g)
	}
}

func BenchmarkRunBatchSTB150(b *testing.B) {
	g := rng.New(1)
	for i := 0; i < b.N; i++ {
		RunBatch(150, backoff.NewSTB, g)
	}
}

func BenchmarkRunBatchBEB10k(b *testing.B) {
	g := rng.New(1)
	for i := 0; i < b.N; i++ {
		RunBatch(10000, backoff.NewBEB, g)
	}
}
