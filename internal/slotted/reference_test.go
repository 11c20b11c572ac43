package slotted

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/backoff"
	"repro/internal/rng"
)

// referenceRunBatch is the aligned kernel as first written: it tracks every
// packet's identity and sorts (slot, packet) pairs each window. It is kept
// as the oracle the production kernel must match field for field.
func referenceRunBatch(n int, f backoff.Factory, g *rng.Source) Result {
	policy := f()
	policy.Reset()

	res := Result{N: n, FinishSlots: make([]int, n)}
	pending := make([]int, n)
	for i := range pending {
		pending[i] = i
	}
	half := (n + 1) / 2
	finished := 0

	type draw struct{ slot, pkt int }
	draws := make([]draw, 0, n)

	offset := 0
	for len(pending) > 0 {
		res.Windows++
		w := policy.NextWindow()
		draws = draws[:0]
		for _, p := range pending {
			draws = append(draws, draw{slot: g.Intn(w), pkt: p})
		}
		sort.Slice(draws, func(i, j int) bool { return draws[i].slot < draws[j].slot })

		next := pending[:0]
		for i := 0; i < len(draws); {
			j := i + 1
			for j < len(draws) && draws[j].slot == draws[i].slot {
				j++
			}
			if j-i == 1 {
				res.SingletonSlots++
				res.FinishSlots[draws[i].pkt] = offset + draws[i].slot + 1
				finished++
				if finished == half && res.HalfSlots == 0 {
					res.HalfSlots = offset + draws[i].slot + 1
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
		res.CWSlots = max(res.CWSlots, p)
	}
	return res
}

// referenceRunTreeBatch is tree splitting as first written: explicit packet
// groups on the resolution stack. Oracle for RunTreeBatch.
func referenceRunTreeBatch(n int, g *rng.Source) Result {
	res := Result{N: n, FinishSlots: make([]int, n)}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	stack := [][]int{all}
	slot, finished, half := 0, 0, (n+1)/2
	for len(stack) > 0 {
		group := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		slot++
		res.Windows++
		switch len(group) {
		case 0:
		case 1:
			res.SingletonSlots++
			res.FinishSlots[group[0]] = slot
			finished++
			if finished == half && res.HalfSlots == 0 {
				res.HalfSlots = slot
			}
		default:
			res.Collisions++
			var left, right []int
			for _, pkt := range group {
				if g.Bernoulli(0.5) {
					left = append(left, pkt)
				} else {
					right = append(right, pkt)
				}
			}
			stack = append(stack, right, left)
		}
	}
	res.CWSlots = slot
	return res
}

// sameResult reports whether got matches the oracle's want in every field,
// comparing FinishSlots as multisets: packets are exchangeable, so only
// the set of finishing slots is an observable of the batch.
func sameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	got.FinishSlots = slices.Sorted(slices.Values(got.FinishSlots))
	want.FinishSlots = slices.Sorted(slices.Values(want.FinishSlots))
	if !reflect.DeepEqual(got, want) {
		g, w := got, want
		g.FinishSlots, w.FinishSlots = nil, nil
		t.Fatalf("%s: kernel diverged from the oracle\n got %+v\nwant %+v\n(finish slots equal: %v)",
			label, g, w, slices.Equal(got.FinishSlots, want.FinishSlots))
	}
}

// seedsFor keeps the equivalence grid affordable under -race: many seeds
// where runs are cheap, a couple at the largest n.
func seedsFor(n int) int {
	switch {
	case n >= 10000:
		return 2
	case n >= 1000:
		return 5
	}
	return 30
}

func TestRunBatchMatchesReference(t *testing.T) {
	type algo struct {
		f    backoff.Factory
		maxN int // schedules that cannot resolve large batches stop here
	}
	algos := map[string]algo{
		"BEB":      {backoff.NewBEB, 10000},
		"LB":       {backoff.NewLB, 10000},
		"LLB":      {backoff.NewLLB, 10000},
		"STB":      {backoff.NewSTB, 10000},
		"FIXED:8":  {func() backoff.Policy { return backoff.NewFixed(8) }, 64},
		"FIXED:2K": {func() backoff.Policy { return backoff.NewFixed(2048) }, 1000},
		"POLY:2":   {func() backoff.Policy { return backoff.NewPoly(2) }, 1000},
	}
	for name, a := range algos {
		for _, n := range []int{1, 2, 3, 5, 10, 64, 150, 1000, 10000} {
			if n > a.maxN {
				continue
			}
			for seed := range seedsFor(n) {
				label := fmt.Sprintf("%s n=%d seed=%d", name, n, seed)
				g := rng.New(uint64(seed)).Derive(label)
				want := referenceRunBatch(n, a.f, g.Derive("run"))
				got := runBatch(t, n, a.f, g.Derive("run"))
				sameResult(t, label, got, want)
			}
		}
	}
}

func TestRunTreeBatchMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 10, 64, 150, 1000, 10000} {
		for seed := range seedsFor(n) {
			label := fmt.Sprintf("TREE n=%d seed=%d", n, seed)
			want := referenceRunTreeBatch(n, rng.New(uint64(seed)).Derive(label))
			got := RunTreeBatch(n, rng.New(uint64(seed)).Derive(label))
			sameResult(t, label, got, want)
		}
	}
}
