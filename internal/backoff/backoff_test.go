package backoff

import (
	"math"
	"testing"
)

// Windows returns the first k windows of a fresh policy from f.
func Windows(f Factory, k int) []int {
	p := f()
	p.Reset()
	out := make([]int, k)
	for i := range out {
		out[i] = p.NextWindow()
	}
	return out
}

// paperAlgorithms returns the factories of PaperAlgorithmNames, in order.
func paperAlgorithms(t *testing.T) []Factory {
	t.Helper()
	var fs []Factory
	for _, name := range PaperAlgorithmNames() {
		f, ok := Registered(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		fs = append(fs, f)
	}
	return fs
}

func TestBEBDoubles(t *testing.T) {
	got := Windows(NewBEB, 8)
	want := []int{1, 2, 4, 8, 16, 32, 64, 128}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BEB windows = %v, want %v", got, want)
		}
	}
}

func TestBEBIsExactPowersOfTwo(t *testing.T) {
	for i, w := range Windows(NewBEB, 30) {
		if w != 1<<i {
			t.Fatalf("BEB window %d = %d, want %d", i, w, 1<<i)
		}
	}
}

func TestResetRewinds(t *testing.T) {
	for _, f := range paperAlgorithms(t) {
		p := f()
		p.Reset()
		first := []int{p.NextWindow(), p.NextWindow(), p.NextWindow()}
		p.Reset()
		second := []int{p.NextWindow(), p.NextWindow(), p.NextWindow()}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("%s: reset did not rewind: %v vs %v", p.Name(), first, second)
			}
		}
	}
}

func TestMonotonePoliciesNonDecreasing(t *testing.T) {
	for _, f := range []Factory{NewBEB, NewLB, NewLLB} {
		ws := Windows(f, 200)
		for i := 1; i < len(ws); i++ {
			if ws[i] < ws[i-1] {
				t.Fatalf("%s window decreased at %d: %v -> %v", f().Name(), i, ws[i-1], ws[i])
			}
		}
	}
}

func TestMonotonePoliciesStrictlyIncreaseEventually(t *testing.T) {
	// After the initial window, LB/LLB/BEB must strictly grow (progress
	// guarantee — a stuck window would loop the MAC forever). BEB is checked
	// only below its int-overflow saturation point.
	for _, f := range []Factory{NewBEB, NewLB, NewLLB} {
		ws := Windows(f, 60)
		for i := 1; i < len(ws); i++ {
			if ws[i] <= ws[i-1] {
				t.Fatalf("%s did not strictly grow at attempt %d: %v", f().Name(), i, ws[i-1:i+1])
			}
		}
	}
}

func TestGrowthOrdering(t *testing.T) {
	// At the same attempt index the windows order BEB >= LLB >= LB:
	// r = 1 > 1/lg lg W > 1/lg W for W above the guard region. The paper
	// notes exactly this ("LLB backs off faster than LB. In this way, LLB
	// is closer to BEB").
	beb := Windows(NewBEB, 40)
	lb := Windows(NewLB, 40)
	llb := Windows(NewLLB, 40)
	for i := 10; i < 40; i++ {
		if !(beb[i] >= llb[i] && llb[i] >= lb[i]) {
			t.Fatalf("at attempt %d: BEB=%d LLB=%d LB=%d, want BEB >= LLB >= LB",
				i, beb[i], llb[i], lb[i])
		}
	}
}

func TestLBGrowthRate(t *testing.T) {
	// For large W, successive LB windows satisfy next ~ (1 + 1/lg W)·W.
	p := NewLB()
	p.Reset()
	var w int
	for i := 0; i < 60; i++ {
		w = p.NextWindow()
	}
	next := p.NextWindow()
	want := (1 + 1/math.Log2(float64(w))) * float64(w)
	if math.Abs(float64(next)-want) > want*0.01+1 {
		t.Fatalf("LB growth at W=%d: next=%d, want ~%.1f", w, next, want)
	}
}

func TestLLBGrowthRate(t *testing.T) {
	p := NewLLB()
	p.Reset()
	var w int
	for i := 0; i < 120; i++ {
		w = p.NextWindow()
	}
	next := p.NextWindow()
	want := (1 + 1/math.Log2(math.Log2(float64(w)))) * float64(w)
	if math.Abs(float64(next)-want) > want*0.01+1 {
		t.Fatalf("LLB growth at W=%d: next=%d, want ~%.1f", w, next, want)
	}
}

func TestSTBSchedule(t *testing.T) {
	// Outer loop W = 2, 4, 8, ...; inner runs W, W/2, ..., 2.
	got := Windows(NewSTB, 10)
	want := []int{2, 4, 2, 8, 4, 2, 16, 8, 4, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("STB schedule = %v, want %v", got, want)
		}
	}
}

func TestSTBSawtoothShapeProperty(t *testing.T) {
	// Property: every STB window is a power of two >= 2, and within a
	// descending run each window is exactly half its predecessor; a rise
	// always jumps to double the previous outer maximum.
	ws := Windows(NewSTB, 300)
	maxSeen := 0
	for i, w := range ws {
		if w < 2 || w&(w-1) != 0 {
			t.Fatalf("STB window %d = %d not a power of two >= 2", i, w)
		}
		if i > 0 {
			prev := ws[i-1]
			if w < prev {
				if w != prev/2 {
					t.Fatalf("STB descend at %d: %d after %d", i, w, prev)
				}
			} else {
				if w != 2*maxSeen && !(maxSeen == 0 && w == 2) {
					t.Fatalf("STB rise at %d: %d after max %d", i, w, maxSeen)
				}
			}
		}
		if w > maxSeen {
			maxSeen = w
		}
	}
}

func TestSTBTotalSlotsLinearInPeak(t *testing.T) {
	// Sum of all windows up to and including outer phase W is < 4W
	// (geometric sums both ways); this is why STB is Θ(n).
	p := NewSTB()
	p.Reset()
	sum, peak := 0, 0
	for sum < 1<<20 {
		w := p.NextWindow()
		sum += w
		if w > peak {
			peak = w
		}
		if w == 2 && peak >= 1<<10 { // completed a sawtooth
			if sum >= 4*peak {
				t.Fatalf("STB slot sum %d >= 4*peak %d", sum, 4*peak)
			}
		}
	}
}

func TestFixedConstant(t *testing.T) {
	ws := Windows(func() Policy { return NewFixed(37) }, 10)
	for _, w := range ws {
		if w != 37 {
			t.Fatalf("fixed windows = %v", ws)
		}
	}
}

func TestFixedClampsToOne(t *testing.T) {
	if w := NewFixed(0).NextWindow(); w != 1 {
		t.Fatalf("NewFixed(0) window = %d", w)
	}
}

func TestPolyQuadratic(t *testing.T) {
	got := Windows(func() Policy { return NewPoly(2) }, 5)
	want := []int{1, 4, 9, 16, 25}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("POLY(2) = %v, want %v", got, want)
		}
	}
}

// TestPolySaturates pins the overflow guard: exponents whose windows
// outgrow int saturate instead of wrapping back to small windows, which
// would turn POLY:p into FIXED:1 once k^p passes math.MaxInt.
func TestPolySaturates(t *testing.T) {
	for _, p := range []float64{40, 64, 100, math.Inf(1)} {
		ws := Windows(func() Policy { return NewPoly(p) }, 50)
		for i, w := range ws {
			if w < 1 || i > 0 && w < ws[i-1] {
				t.Fatalf("POLY(%g) windows %v: not >= 1 and non-decreasing at attempt %d", p, ws, i)
			}
		}
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range PaperAlgorithmNames() {
		f, ok := Registered(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		if got := f().Name(); got != name {
			t.Fatalf("registered %s builds %s", name, got)
		}
	}
	if _, ok := Registered("NOPE"); ok {
		t.Fatal("bogus name resolved")
	}
	f, ok := Registered("FIXED:300")
	if !ok || f().NextWindow() != 300 {
		t.Fatal("FIXED:300 not parsed")
	}
	pf, ok := Registered("POLY:2")
	if !ok || pf().Name() != "POLY(2)" {
		t.Fatal("POLY:2 not parsed")
	}
}

func TestAllWindowsPositive(t *testing.T) {
	for _, f := range paperAlgorithms(t) {
		for i, w := range Windows(f, 500) {
			if w < 1 {
				t.Fatalf("%s produced window %d at attempt %d", f().Name(), w, i)
			}
		}
	}
}

func TestFactoriesIndependent(t *testing.T) {
	// Two policies from the same factory must not share state.
	a, b := NewBEB(), NewBEB()
	a.Reset()
	b.Reset()
	a.NextWindow()
	a.NextWindow()
	if w := b.NextWindow(); w != 1 {
		t.Fatalf("policies share state: fresh BEB window = %d", w)
	}
}
