package slotted

import (
	"testing"

	"repro/internal/backoff"
	"repro/internal/rng"
)

func TestTreeBatchDeliversEveryone(t *testing.T) {
	g := rng.New(1)
	for _, n := range []int{1, 2, 3, 17, 100, 1000} {
		res := RunTreeBatch(n, g.Derive(string(rune(n))))
		if res.SingletonSlots != n {
			t.Fatalf("n=%d: %d successes", n, res.SingletonSlots)
		}
		for i, f := range res.FinishSlots {
			if f < 1 || f > res.CWSlots {
				t.Fatalf("n=%d: packet %d finish slot %d out of range", n, i, f)
			}
		}
	}
}

func TestTreeBatchSlotAccounting(t *testing.T) {
	g := rng.New(2)
	res := RunTreeBatch(200, g)
	if res.SingletonSlots+res.Collisions > res.CWSlots {
		t.Fatalf("slot accounting: %d + %d > %d", res.SingletonSlots, res.Collisions, res.CWSlots)
	}
	// Every collision splits into exactly two subgroups, so the tree has
	// 2·Collisions+1 nodes, one slot each.
	if res.CWSlots != res.Windows || res.Windows != 2*res.Collisions+1 {
		t.Fatalf("tree shape: %d slots, %d nodes, %d collisions", res.CWSlots, res.Windows, res.Collisions)
	}
}

func TestTreeBatchExpectedSlotConstant(t *testing.T) {
	// Binary tree splitting needs ~2.885 slots per packet in expectation.
	g := rng.New(3)
	const n, trials = 2000, 15
	var total int
	for tr := 0; tr < trials; tr++ {
		total += RunTreeBatch(n, g.Derive(string(rune(tr)))).CWSlots
	}
	perPacket := float64(total) / float64(trials*n)
	if perPacket < 2.5 || perPacket > 3.3 {
		t.Fatalf("tree slots per packet %.3f, want ~2.885", perPacket)
	}
}

func TestTreeBatchCollisionsLinear(t *testing.T) {
	// Collisions = internal nodes of the splitting tree ~ Θ(n).
	g := rng.New(4)
	small := RunTreeBatch(500, g.Derive("s")).Collisions
	large := RunTreeBatch(8000, g.Derive("l")).Collisions
	ratio := float64(large) / float64(small)
	if ratio < 10 || ratio > 26 { // 16x n, allow noise
		t.Fatalf("collision growth ratio %.1f for 16x n, want ~16", ratio)
	}
}

func TestTreeBatchSinglePacket(t *testing.T) {
	res := RunTreeBatch(1, rng.New(5))
	if res.CWSlots != 1 || res.Collisions != 0 {
		t.Fatalf("single packet: %+v", res)
	}
}

func TestTreeBatchDeterministic(t *testing.T) {
	a := RunTreeBatch(100, rng.New(7))
	b := RunTreeBatch(100, rng.New(7))
	if a.CWSlots != b.CWSlots || a.Collisions != b.Collisions {
		t.Fatal("same seed diverged")
	}
}

func TestTreeBatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	RunTreeBatch(0, rng.New(1))
}

// TestTreeVsSawtoothCollisions compares the non-backoff baseline with STB:
// both are Θ(n) in collisions, with the tree's constant below STB's
// backon-inflated one.
func TestTreeVsSawtoothCollisions(t *testing.T) {
	g := rng.New(8)
	const n, trials = 2000, 9
	var tree, stb []int
	for tr := 0; tr < trials; tr++ {
		tree = append(tree, RunTreeBatch(n, g.Derive("t"+string(rune(tr)))).Collisions)
		stb = append(stb, runBatch(t, n, backoff.NewSTB, g.Derive("s"+string(rune(tr)))).Collisions)
	}
	if medianInt(tree) >= medianInt(stb) {
		t.Fatalf("tree collisions %d not below STB %d", medianInt(tree), medianInt(stb))
	}
}
