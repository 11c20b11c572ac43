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
	"sort"

	"repro/internal/backoff"
	"repro/internal/rng"
)

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
	// CollisionsAtHalf counts collisions in slots up to HalfSlots.
	CollisionsAtHalf int
	// EmptySlots counts slots up to CWSlots with no transmission.
	EmptySlots int
	// SingletonSlots counts slots with exactly one transmission (successes).
	SingletonSlots int
	// Attempts is the total number of transmission attempts by all packets.
	Attempts int
	// MaxAttemptsPerPacket is the maximum attempts by any single packet; in
	// the MAC world attempts-1 is that station's ACK-timeout count.
	MaxAttemptsPerPacket int
	// FinishSlots holds each packet's 1-based finishing slot, in packet order.
	FinishSlots []int
	// Windows is the number of contention windows the batch walked through.
	Windows int
}

// Aligned reports results for the batch-aligned window semantics the
// paper's analysis uses: all stations share window boundaries, as they do
// when a single batch starts simultaneously and the schedule is
// deterministic.
//
// RunBatch simulates one run with a fresh policy from f and randomness g.
// It panics if n < 1 or the policy stops making progress.
func RunBatch(n int, f backoff.Factory, g *rng.Source) Result {
	if n < 1 {
		panic("slotted: RunBatch needs n >= 1")
	}
	policy := f()
	policy.Reset()

	res := Result{N: n, FinishSlots: make([]int, n)}
	attempts := make([]int, n)

	// pending holds indices of unfinished packets.
	pending := make([]int, n)
	for i := range pending {
		pending[i] = i
	}
	half := (n + 1) / 2
	finished := 0

	// scratch pairs: (slot, packet) for the current window.
	type draw struct{ slot, pkt int }
	draws := make([]draw, 0, n)

	offset := 0 // global slots elapsed before the current window
	const maxWindows = 1 << 22
	for len(pending) > 0 {
		res.Windows++
		if res.Windows > maxWindows {
			panic("slotted: window schedule not making progress")
		}
		w := policy.NextWindow()
		if w < 1 {
			panic("slotted: policy returned window < 1")
		}

		draws = draws[:0]
		for _, p := range pending {
			draws = append(draws, draw{slot: g.Intn(w), pkt: p})
			attempts[p]++
			res.Attempts++
		}
		sort.Slice(draws, func(i, j int) bool { return draws[i].slot < draws[j].slot })

		// Walk runs of equal slot index.
		next := pending[:0]
		for i := 0; i < len(draws); {
			j := i + 1
			for j < len(draws) && draws[j].slot == draws[i].slot {
				j++
			}
			if j-i == 1 {
				pkt := draws[i].pkt
				res.SingletonSlots++
				res.FinishSlots[pkt] = offset + draws[i].slot + 1
				finished++
				if finished == half && res.HalfSlots == 0 {
					res.HalfSlots = offset + draws[i].slot + 1
					// Runs are processed in slot order, so res.Collisions
					// already counts exactly the collisions in slots before
					// this one (in this window and all earlier ones).
					res.CollisionsAtHalf = res.Collisions
				}
			} else {
				res.Collisions++
				for k := i; k < j; k++ {
					next = append(next, draws[k].pkt)
				}
			}
			i = j
		}
		pending = next
		offset += w
	}

	for _, p := range res.FinishSlots {
		if p > res.CWSlots {
			res.CWSlots = p
		}
	}
	for _, a := range attempts {
		if a > res.MaxAttemptsPerPacket {
			res.MaxAttemptsPerPacket = a
		}
	}
	// Empty slots: every slot up to the makespan that held no transmission.
	// Every singleton and collision slot lies at or before CWSlots by
	// construction: the tail of the final window past the last success is
	// empty and excluded by definition of CWSlots.
	res.EmptySlots = res.CWSlots - res.SingletonSlots - res.Collisions
	if res.EmptySlots < 0 {
		res.EmptySlots = 0
	}
	return res
}

// RunBatchUnaligned simulates the same single batch but with per-station
// window boundaries: after a failure a station waits until the end of its
// own window and opens the next one there, with no global alignment. This
// matches how the schedule unrolls inside a real MAC once stations'
// histories diverge, and is the ablation counterpart of RunBatch.
func RunBatchUnaligned(n int, f backoff.Factory, g *rng.Source) Result {
	if n < 1 {
		panic("slotted: RunBatchUnaligned needs n >= 1")
	}
	res := Result{N: n, FinishSlots: make([]int, n)}

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
	res.Attempts = n

	finished := 0
	half := (n + 1) / 2
	var ids []int
	for finished < n {
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
			id := ids[0]
			res.SingletonSlots++
			res.FinishSlots[id] = slot + 1
			finished++
			if finished == half && res.HalfSlots == 0 {
				res.HalfSlots = slot + 1
				res.CollisionsAtHalf = res.Collisions
			}
		} else {
			res.Collisions++
			for _, id := range ids {
				s := sts[id]
				s.winStart += s.winSize
				s.winSize = s.policy.NextWindow()
				h.push(attempt{slot: s.winStart + g.Intn(s.winSize), id: id})
				s.attempts++
				res.Attempts++
			}
		}
	}
	for _, p := range res.FinishSlots {
		if p > res.CWSlots {
			res.CWSlots = p
		}
	}
	for _, s := range sts {
		if s.attempts > res.MaxAttemptsPerPacket {
			res.MaxAttemptsPerPacket = s.attempts
		}
	}
	res.EmptySlots = res.CWSlots - res.SingletonSlots - res.Collisions
	if res.EmptySlots < 0 {
		res.EmptySlots = 0
	}
	return res
}
