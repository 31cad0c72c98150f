package qmf

import (
	"cmp"
	"math/bits"
	"slices"
	"testing"

	"unitdb/internal/core/usm"
	"unitdb/internal/engine"
	"unitdb/internal/stats"
	"unitdb/internal/workload"
)

// itemSet returns the item numbers of xs in ascending order.
func itemSet(xs []aur) []int {
	items := make([]int, len(xs))
	for i, x := range xs {
		items[i] = x.item
	}
	slices.Sort(items)
	return items
}

// checkSelect runs selectLowest on a copy of xs for each k and compares the
// set it leaves in the prefix, and the element at k-1, with the
// reference: a full sort under the (ratio, item) order. It runs once with
// the round budget recomputeDropSet gives and once with each of a few
// tiny ones, so the sort fallback is checked at every stage of the
// partitioning too.
func checkSelect(t *testing.T, name string, xs []aur, ks ...int) {
	t.Helper()
	want := slices.Clone(xs)
	slices.SortFunc(want, func(a, b aur) int {
		if c := cmp.Compare(a.ratio, b.ratio); c != 0 {
			return c
		}
		return cmp.Compare(a.item, b.item)
	})
	all := itemSet(xs)
	for _, k := range ks {
		lowest := itemSet(want[:k])
		for _, rounds := range []int{2 * bits.Len(uint(len(xs))), 0, 1, 2, 3} {
			got := slices.Clone(xs)
			selectLowest(got, k, rounds)
			if !slices.Equal(itemSet(got[:k]), lowest) {
				t.Fatalf("%s: n=%d k=%d rounds=%d: selection marked a different set than the sort", name, len(xs), k, rounds)
			}
			if got[k-1] != want[k-1] {
				t.Fatalf("%s: n=%d k=%d rounds=%d: xs[k-1] = %v, want the k-th lowest %v", name, len(xs), k, rounds, got[k-1], want[k-1])
			}
			if !slices.Equal(itemSet(got), all) {
				t.Fatalf("%s: n=%d k=%d rounds=%d: selection is not a permutation of its input", name, len(xs), k, rounds)
			}
		}
	}
}

// TestSelectLowestMatchesSort: over random ratio vectors with heavy ties
// (ratios drawn from a few integers) and every k, the selection marks the
// same set as sorting and taking the prefix. Item numbers are sparse, as
// in recomputeDropSet where never-updated items are skipped.
func TestSelectLowestMatchesSort(t *testing.T) {
	rng := stats.NewRNG(37)
	sizes := []int{1, 2, 3, 4, 5, 7, 16, 31, 64, 100, 255, 300}
	for trial := 0; trial < 10; trial++ {
		sizes = append(sizes, 1+rng.Intn(300))
	}
	for _, n := range sizes {
		for _, distinct := range []int{1, 2, 3, 5} {
			xs := make([]aur, n)
			item := 0
			for i := range xs {
				item += 1 + rng.Intn(3)
				xs[i] = aur{item: item, ratio: float64(rng.Intn(distinct))}
			}
			// Half the vectors keep recomputeDropSet's item order, half
			// are shuffled.
			if rng.Intn(2) == 0 {
				for i := n - 1; i > 0; i-- {
					j := rng.Intn(i + 1)
					xs[i], xs[j] = xs[j], xs[i]
				}
			}
			ks := make([]int, n)
			for k := range ks {
				ks[k] = k + 1
			}
			checkSelect(t, "random", xs, ks...)
		}
	}
}

// TestSelectLowestAdversarial covers the inputs a naive pivot degrades
// on: already sorted, reverse sorted and all ratios equal, at n = 4,096,
// and the shape a loaded QMF run builds early on: every ratio 0 but the
// first two items' (which put the range's maximum at its left end, where
// a plain median of three keeps finding it).
func TestSelectLowestAdversarial(t *testing.T) {
	const n = 4096
	inputs := map[string]func(i int) aur{
		"sorted":   func(i int) aur { return aur{item: i, ratio: float64(i) / 7} },
		"reversed": func(i int) aur { return aur{item: i, ratio: float64(n-i) / 7} },
		"equal":    func(i int) aur { return aur{item: i, ratio: 0.5} },
		"equal-reversed-items": func(i int) aur {
			return aur{item: n - 1 - i, ratio: 0.5}
		},
		"two-high-then-zeros": func(i int) aur {
			return aur{item: i, ratio: float64(max(0, 3-2*i))}
		},
	}
	for name, gen := range inputs {
		xs := make([]aur, n)
		for i := range xs {
			xs[i] = gen(i)
		}
		checkSelect(t, name, xs, 1, 2, n/3, n/2, n/2+1, n-2, n-1, n)
	}
}

// TestRecomputeDropSetAllocFree: after a warm-up call sizes the ranking
// buffer, recomputing the drop set allocates nothing.
func TestRecomputeDropSetAllocFree(t *testing.T) {
	p := New(DefaultConfig())
	w := smallTrace(t, workload.Low)
	if _, err := engine.New(engine.NewConfig(w, usm.Weights{}, 7), p); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(5)
	for i := range p.upd {
		p.upd[i], p.acc[i] = 1+rng.Intn(4), rng.Intn(8)
	}
	p.dropFrac = 0.4
	p.recomputeDropSet()
	if a := testing.AllocsPerRun(20, p.recomputeDropSet); a != 0 {
		t.Fatalf("recomputeDropSet allocated %v times per call", a)
	}
}
