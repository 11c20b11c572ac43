// Package backoff implements the contention-window schedules studied by the
// paper: binary exponential backoff (BEB), LOG-BACKOFF (LB),
// LOGLOG-BACKOFF (LLB), SAWTOOTH-BACKOFF (STB), fixed backoff, and a
// polynomial-backoff ablation. A Policy is a stateful generator of
// contention-window sizes: attempt k uses the k-th window of the schedule.
//
// The same policies drive both channel models. In the abstract slotted model
// (package slotted) a batch of stations walks the aligned window sequence;
// in the MAC model (package mac) each station advances its own policy one
// window per detected collision, exactly as DCF grows CW on every ACK
// timeout.
package backoff

import (
	"fmt"
	"math"
)

// Policy yields the contention-window schedule for one station.
// Implementations are not safe for concurrent use; every station owns one.
type Policy interface {
	// Name returns the canonical algorithm name, e.g. "BEB".
	Name() string
	// Reset rewinds the schedule to its first window (a fresh packet).
	Reset()
	// NextWindow returns the size (in slots, >= 1) of the next contention
	// window and advances the schedule. The first call after Reset returns
	// the initial window.
	NextWindow() int
}

// Factory builds a fresh Policy; each station gets its own instance.
type Factory func() Policy

// --- Binary exponential backoff ------------------------------------------

// beb doubles the window on every attempt: 1, 2, 4, 8, ...
type beb struct {
	w int
}

// NewBEB returns binary exponential backoff starting at window size 1
// (the paper's Figure 2 with r = 1).
func NewBEB() Policy { return &beb{} }

func (b *beb) Name() string { return "BEB" }
func (b *beb) Reset()       { b.w = 0 }
func (b *beb) NextWindow() int {
	if b.w == 0 {
		b.w = 1
	} else if b.w <= math.MaxInt/2 {
		b.w *= 2
	}
	return b.w
}

// --- Generic multiplicative-growth backoff (Figure 2) --------------------

// rGrow implements the paper's generic schedule: W <- (1+r(W))·W with
// W0 = 1, where r depends on the current window size.
//
// Growth is materialized with ceil so the window strictly increases; for
// windows too small for the rate function to be defined (lg W <= 1 or
// lg lg W <= 1) the window doubles, which matches the asymptotic analyses
// (they only constrain behaviour for large W).
type rGrow struct {
	name string
	rate func(w float64) float64
	w    int
}

func (g *rGrow) Name() string { return g.name }
func (g *rGrow) Reset()       { g.w = 0 }
func (g *rGrow) NextWindow() int {
	if g.w == 0 {
		g.w = 1
		return g.w
	}
	r := g.rate(float64(g.w))
	if !(r > 0) || r >= 1 || math.IsNaN(r) {
		// Undefined or >= doubling rate at small windows: double.
		if g.w <= math.MaxInt/2 {
			g.w *= 2
		}
		return g.w
	}
	next := int(math.Ceil((1 + r) * float64(g.w)))
	if next <= g.w { // paranoia: guarantee progress
		next = g.w + 1
	}
	g.w = next
	return g.w
}

// NewLB returns LOG-BACKOFF: r = 1/lg W (Bender et al. 2005), with
// Θ(n·log n/log log n) contention-window slots for a batch of n.
func NewLB() Policy {
	return &rGrow{name: "LB", rate: func(w float64) float64 {
		return 1 / math.Log2(w)
	}}
}

// NewLLB returns LOGLOG-BACKOFF: r = 1/lg lg W (Bender et al. 2005), with
// Θ(n·log log n/log log log n) contention-window slots.
func NewLLB() Policy {
	return &rGrow{name: "LLB", rate: func(w float64) float64 {
		return 1 / math.Log2(math.Log2(w))
	}}
}

// --- Sawtooth backoff ------------------------------------------------------

// stb implements SAWTOOTH-BACKOFF (Gereb-Graus & Tsantilas 1992; Greenberg &
// Leiserson 1985): a doubly nested loop. The outer loop doubles W; for each
// W the inner loop runs lg W windows of sizes W, W/2, ..., 2 (the "backon"
// component).
type stb struct {
	outer int // current outer window size W (power of two)
	inner int // current inner window size, counts down W, W/2, ..., 2
}

// NewSTB returns SAWTOOTH-BACKOFF, asymptotically optimal at Θ(n) CW slots.
func NewSTB() Policy { return &stb{} }

func (s *stb) Name() string { return "STB" }
func (s *stb) Reset()       { s.outer, s.inner = 0, 0 }
func (s *stb) NextWindow() int {
	if s.inner >= 2 {
		w := s.inner
		s.inner /= 2
		return w
	}
	// Advance the outer loop and start its sawtooth.
	if s.outer == 0 {
		s.outer = 2
	} else if s.outer <= math.MaxInt/2 {
		s.outer *= 2
	}
	s.inner = s.outer / 2
	return s.outer
}

// --- Fixed backoff ---------------------------------------------------------

// fixed repeats the same window size forever; the second phase of the
// BEST-OF-k size-estimation algorithm (Figure 17).
type fixed struct {
	w int
}

// NewFixed returns fixed backoff with constant window size w (>= 1).
func NewFixed(w int) Policy {
	if w < 1 {
		w = 1
	}
	return &fixed{w: w}
}

func (f *fixed) Name() string    { return fmt.Sprintf("FIXED(%d)", f.w) }
func (f *fixed) Reset()          {}
func (f *fixed) NextWindow() int { return f.w }

// --- Polynomial backoff (ablation) ----------------------------------------

// poly grows the window as W_k = (k+1)^p for attempt k, the polynomial
// backoff family studied in the related throughput/fairness literature
// (quadratic backoff is p = 2). Included as an ablation point between fixed
// and exponential growth.
type poly struct {
	p float64
	k int
}

// NewPoly returns polynomial backoff with exponent p >= 1.
func NewPoly(p float64) Policy {
	if p < 1 {
		p = 1
	}
	return &poly{p: p}
}

func (q *poly) Name() string { return fmt.Sprintf("POLY(%g)", q.p) }
func (q *poly) Reset()       { q.k = 0 }
func (q *poly) NextWindow() int {
	q.k++
	// k^p outgrows int long before k does, and converting an out-of-range
	// float wraps: saturate at BEB's doubling bound instead, so windows
	// never shrink.
	w := math.MaxInt / 2
	if pw := math.Pow(float64(q.k), q.p); pw < float64(w) {
		w = int(pw)
	}
	return w
}

// --- Registry ---------------------------------------------------------------

// Registered returns the factory for a canonical algorithm name: "BEB",
// "LB", "LLB", "STB", or "FIXED:<w>". Lookup failures return ok = false.
func Registered(name string) (Factory, bool) {
	switch name {
	case "BEB":
		return NewBEB, true
	case "LB":
		return NewLB, true
	case "LLB":
		return NewLLB, true
	case "STB":
		return NewSTB, true
	default:
		var w int
		if _, err := fmt.Sscanf(name, "FIXED:%d", &w); err == nil && w >= 1 {
			return func() Policy { return NewFixed(w) }, true
		}
		var p float64
		if _, err := fmt.Sscanf(name, "POLY:%g", &p); err == nil && p >= 1 {
			return func() Policy { return NewPoly(p) }, true
		}
		return nil, false
	}
}

// PaperAlgorithmNames returns the registered names of the four algorithms
// of the paper's comparison in presentation order: BEB, LB, LLB, STB.
func PaperAlgorithmNames() []string { return []string{"BEB", "LB", "LLB", "STB"} }
