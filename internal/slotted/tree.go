package slotted

import (
	"repro/internal/rng"
)

// RunTreeBatch resolves a single batch of n packets with the classic binary
// tree-splitting algorithm (Capetanakis 1979; reference [25] of the paper):
// the whole batch transmits, and every collision splits its participants by
// independent fair coin flips into two subgroups resolved depth-first. The
// expected makespan is ~2.885·n slots.
//
// Tree algorithms consume one unit of ternary feedback (idle/success/
// collision) per slot, so under the paper's cost lens every one of their
// Θ(n) collisions is as expensive as a windowed algorithm's — they optimize
// the same mis-priced metric. Included as the non-backoff baseline.
//
// Packets are exchangeable, so the resolution stack holds group sizes, not
// packets: a collision of k packets flips the same k coins in turn and
// splits into the counts that landed left and right.
func RunTreeBatch(n int, g *rng.Source) Result {
	if n < 1 {
		panic("slotted: RunTreeBatch needs n >= 1")
	}
	res := Result{N: n, FinishSlots: make([]int, 0, n)}

	// The stack holds the sizes of the splitting tree's groups awaiting
	// their slots; depth-first order matches the recursive definition.
	stack := []int{n}
	slot := 0
	for len(stack) > 0 {
		size := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		slot++
		res.Windows++ // each tree node is its own single-slot "window"

		switch size {
		case 0:
			// Idle slot.
		case 1:
			res.success(slot)
		default:
			res.Collisions++
			left := 0
			for range size {
				if g.Bernoulli(0.5) {
					left++
				}
			}
			// Depth-first: resolve left before right.
			stack = append(stack, size-left, left)
		}
	}

	// The tree occupies the channel until its stack drains (trailing empty
	// right-subtree slots included), so the makespan is the full slot count.
	res.CWSlots = slot
	return res
}
