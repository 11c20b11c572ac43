// Package slotted implements the abstract contention-resolution model the
// algorithmic literature analyzes and the paper's "simple Java simulation"
// re-creates (Figures 5, 15, 16): time is discretized into slots (A0), a
// slot delivers a packet iff exactly one station transmits in it (A1), and
// failure is known immediately (A2). There is no PHY, no MAC, no cost for a
// collision beyond the slot itself — which is precisely the mis-pricing the
// paper exposes.
//
// The package simulates a single batch of n packets walking a backoff
// policy's window schedule and reports the metrics the paper plots:
// contention-window slots (makespan in slots), disjoint collisions, and
// per-packet finish slots.
package slotted

import (
	"errors"
	"slices"

	"repro/internal/backoff"
	"repro/internal/rng"
)

// ErrNoProgress reports a batch whose backoff schedule walked maxWindows
// contention windows without delivering every packet — a schedule whose
// windows stay too small for the batch, such as FIXED:2 at n = 64.
var ErrNoProgress = errors.New("slotted: window schedule not making progress")

// maxWindows bounds the windows one batch (aligned) or one station
// (unaligned) may open before the run fails with ErrNoProgress.
const maxWindows = 1 << 22

// denseFactor picks how a window's draws are grouped by slot: a window of
// at most denseFactor·m slots for m draws is tallied in a w-slot array,
// which then costs O(m) to walk; a sparser window sorts its m draws instead.
const denseFactor = 4

// Result collects the outcome of one single-batch run in the abstract model.
type Result struct {
	N int
	// CWSlots is the global index (1-based count) of the slot in which the
	// last packet succeeded: the paper's "contention-window slots" metric.
	CWSlots int
	// HalfSlots is the slot count at which ceil(n/2) packets had finished
	// (Figure 6).
	HalfSlots int
	// Collisions is the number of disjoint collisions: slots holding two or
	// more transmissions (Section IV's C_A).
	Collisions int
	// SingletonSlots counts slots with exactly one transmission (successes).
	SingletonSlots int
	// FinishSlots holds every packet's 1-based finishing slot in ascending
	// order. Packets are exchangeable, so a packet is labelled by its
	// finishing rank rather than by an arrival index.
	FinishSlots []int
	// Windows is the number of contention windows the batch walked through.
	Windows int
}

// success records a delivery in global slot s (1-based). Deliveries must
// arrive in ascending slot order, so the ceil(n/2)-th one fixes HalfSlots.
func (r *Result) success(s int) {
	r.SingletonSlots++
	r.FinishSlots = append(r.FinishSlots, s)
	if len(r.FinishSlots) == (r.N+1)/2 {
		r.HalfSlots = s
	}
}

// finish derives the makespan once every packet has succeeded: the tail
// of the final window past the last success is excluded by definition of
// CWSlots.
func (r *Result) finish() {
	r.CWSlots = r.FinishSlots[len(r.FinishSlots)-1]
}

// Aligned reports results for the batch-aligned window semantics the
// paper's analysis uses: all stations share window boundaries, as they do
// when a single batch starts simultaneously and the schedule is
// deterministic.
//
// RunBatch simulates one run with a fresh policy from f and randomness g.
// Packets are exchangeable, so the kernel tracks only how many are
// pending: each window draws one slot per pending packet, g.Intn(w) in
// turn, and a slot drawn exactly once is a success. It returns
// ErrNoProgress if the schedule walks maxWindows windows, and panics if
// n < 1 or the policy returns a window below 1.
func RunBatch(n int, f backoff.Factory, g *rng.Source) (Result, error) {
	if n < 1 {
		panic("slotted: RunBatch needs n >= 1")
	}
	policy := f()
	policy.Reset()

	res := Result{N: n, FinishSlots: make([]int, 0, n)}
	var tally []uint8 // dense windows: draws per slot, saturating at 2; kept zeroed
	var draws []int   // sparse windows: the sorted draws
	offset := 0       // global slots elapsed before the current window
	for m := n; m > 0; m = n - res.SingletonSlots {
		res.Windows++
		if res.Windows > maxWindows {
			return Result{}, ErrNoProgress
		}
		w := policy.NextWindow()
		if w < 1 {
			panic("slotted: policy returned window < 1")
		}

		// Both branches visit the window's occupied slots in ascending
		// order, as success requires.
		if w <= denseFactor*m {
			if w > len(tally) {
				tally = make([]uint8, max(w, 2*len(tally)))
			}
			for range m {
				if s := g.Intn(w); tally[s] < 2 {
					tally[s]++
				}
			}
			for s, c := range tally[:w] {
				switch c {
				case 0:
					continue
				case 1:
					res.success(offset + s + 1)
				default:
					res.Collisions++
				}
				tally[s] = 0
			}
		} else {
			draws = draws[:0]
			for range m {
				draws = append(draws, g.Intn(w))
			}
			slices.Sort(draws)
			for i := 0; i < len(draws); {
				j := i + 1
				for j < len(draws) && draws[j] == draws[i] {
					j++
				}
				if j-i == 1 {
					res.success(offset + draws[i] + 1)
				} else {
					res.Collisions++
				}
				i = j
			}
		}
		offset += w
	}
	res.finish()
	return res, nil
}

// RunBatchUnaligned simulates the same single batch but with per-station
// window boundaries: after a failure a station waits until the end of its
// own window and opens the next one there, with no global alignment. This
// matches how the schedule unrolls inside a real MAC once stations'
// histories diverge, and is the ablation counterpart of RunBatch. Here
// windows are per station, so the kernel does track identities. It returns
// ErrNoProgress once any station has opened maxWindows windows.
func RunBatchUnaligned(n int, f backoff.Factory, g *rng.Source) (Result, error) {
	if n < 1 {
		panic("slotted: RunBatchUnaligned needs n >= 1")
	}
	res := Result{N: n, FinishSlots: make([]int, 0, n)}

	type station struct {
		policy   backoff.Policy
		winStart int // global slot where the current window begins
		winSize  int
		attempts int
	}
	sts := make([]*station, n)
	h := &attemptHeap{}
	for i := range sts {
		p := f()
		p.Reset()
		s := &station{policy: p, winStart: 0}
		s.winSize = p.NextWindow()
		s.attempts = 1
		sts[i] = s
		h.push(attempt{slot: g.Intn(s.winSize), id: i})
	}

	var ids []int
	for res.SingletonSlots < n {
		if h.len() == 0 {
			panic("slotted: no pending attempts but packets unfinished")
		}
		top := h.pop()
		slot := top.slot
		ids = append(ids[:0], top.id)
		for h.len() > 0 && h.peek().slot == slot {
			ids = append(ids, h.pop().id)
		}
		if len(ids) == 1 {
			res.success(slot + 1)
			continue
		}
		res.Collisions++
		for _, id := range ids {
			s := sts[id]
			if s.attempts == maxWindows {
				return Result{}, ErrNoProgress
			}
			s.winStart += s.winSize
			s.winSize = s.policy.NextWindow()
			h.push(attempt{slot: s.winStart + g.Intn(s.winSize), id: id})
			s.attempts++
		}
	}
	res.finish()
	return res, nil
}
