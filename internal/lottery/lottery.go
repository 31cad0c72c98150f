// Package lottery implements Waldspurger-style proportional-share
// scheduling primitives: a lottery sampler backed by an augmented segment
// tree, and stride scheduling for deterministic proportional selection.
//
// UNIT's Update Frequency Modulation (paper §3.4.1) holds one ticket value
// per data item and repeatedly draws a "victim" item with probability
// proportional to T_j − T_min (ticket values can be negative, so the paper
// shifts them by the minimum before drawing). The segment tree keeps the
// sum and minimum of tickets per subtree, so both the shift and the draw
// are O(log N) — matching the complexity the paper cites for lottery
// scheduling — without ever materializing the shifted ticket vector. A
// batch of draws (SampleN, one Degrade signal's worth) reads the shift and
// total once and runs the descents branch-free, several variates
// interleaved, over the unchanged tree.
package lottery

import (
	"fmt"
	"math"
)

// node is one segment-tree node. The three augmentations live side by
// side so a root-to-leaf walk touches one cache line per level instead of
// three (they used to be parallel []float64/[]int arrays); cnt is stored
// as float64 because it only ever appears in cnt*min products.
type node struct {
	sum float64 // Σ tickets in the subtree
	min float64 // min ticket in the subtree (+Inf for padding leaves)
	cnt float64 // number of real leaves in the subtree
}

// Sampler draws indices in [0, n) with probability proportional to
// tickets[i] − min(tickets). When every ticket is equal the shifted weights
// are all zero and the draw falls back to uniform.
type Sampler struct {
	n     int
	size  int // number of leaves in the complete tree (power of two >= n)
	nodes []node
}

// NewSampler creates a sampler for n items with all tickets zero.
// It panics when n <= 0.
func NewSampler(n int) *Sampler {
	if n <= 0 {
		panic("lottery: sampler needs at least one item")
	}
	size := 1
	for size < n {
		size *= 2
	}
	s := &Sampler{
		n:     n,
		size:  size,
		nodes: make([]node, 2*size),
	}
	for i := 0; i < size; i++ {
		leaf := size + i
		if i < n {
			s.nodes[leaf].cnt = 1
			s.nodes[leaf].min = 0
		} else {
			s.nodes[leaf].min = math.Inf(1) // padding leaves never count
		}
	}
	for i := size - 1; i >= 1; i-- {
		s.pull(i)
	}
	return s
}

func (s *Sampler) pull(i int) {
	s.pullDyn(i)
	s.nodes[i].cnt = s.nodes[2*i].cnt + s.nodes[2*i+1].cnt
}

// pullDyn recomputes the dynamic augmentations (sum, min) of node i. The
// leaf count of a subtree is fixed at construction, so the per-Set and
// per-Scale walks skip it.
func (s *Sampler) pullDyn(i int) {
	l, r := &s.nodes[2*i], &s.nodes[2*i+1]
	n := &s.nodes[i]
	n.sum = l.sum + r.sum
	if l.min <= r.min {
		n.min = l.min
	} else {
		n.min = r.min
	}
}

// Len returns the number of items.
func (s *Sampler) Len() int { return s.n }

// Ticket returns the ticket value of item i.
func (s *Sampler) Ticket(i int) float64 {
	s.check(i)
	return s.nodes[s.size+i].sum
}

// Set assigns the ticket value of item i.
func (s *Sampler) Set(i int, ticket float64) {
	s.check(i)
	leaf := s.size + i
	s.nodes[leaf].sum = ticket
	s.nodes[leaf].min = ticket
	for leaf /= 2; leaf >= 1; leaf /= 2 {
		s.pullDyn(leaf)
	}
}

// Add adds delta to the ticket value of item i.
func (s *Sampler) Add(i int, delta float64) { s.Set(i, s.Ticket(i)+delta) }

// Scale multiplies every ticket by factor. This is O(n) and implements the
// exponential forgetting sweep (paper Eq. 8 applies the forgetting factor
// on every event touching an item; ScaleAll supports batch decay variants).
func (s *Sampler) Scale(factor float64) {
	for i := 0; i < s.n; i++ {
		leaf := &s.nodes[s.size+i]
		leaf.sum *= factor
		leaf.min = leaf.sum
	}
	for i := s.size - 1; i >= 1; i-- {
		s.pullDyn(i)
	}
}

// Sum returns the sum of all tickets.
func (s *Sampler) Sum() float64 { return s.nodes[1].sum }

// Min returns the minimum ticket value.
func (s *Sampler) Min() float64 { return s.nodes[1].min }

// EffectiveTotal returns the total shifted weight, Σ(T_i − T_min).
func (s *Sampler) EffectiveTotal() float64 {
	return s.nodes[1].sum - s.nodes[1].cnt*s.nodes[1].min
}

// Sample draws one index using the uniform variate u in [0, 1). Items are
// weighted by T_i − T_min; if that is zero for every item the draw is
// uniform. It panics when u is outside [0, 1). It is the one-lane case of
// SampleN.
func (s *Sampler) Sample(u float64) int {
	us, out := [1]float64{u}, [1]int{}
	s.SampleN(us[:], out[:])
	return out[0]
}

// lanes is how many variates SampleN descends together. The lanes share
// no state, so their load–compare–subtract chains overlap in the CPU.
const lanes = 4

// SampleN draws one index per variate into out: out[k] is exactly the
// index Sample(us[k]) returns. The tree does not change inside a batch, so
// the minimum and the shifted total are read once, and every variate then
// takes one branch-free O(log N) root-to-leaf descent, lanes at a time. It
// panics when out is shorter than us or a variate is outside [0, 1).
func (s *Sampler) SampleN(us []float64, out []int) {
	if len(out) < len(us) {
		panic(fmt.Sprintf("lottery: %d outputs for %d variates", len(out), len(us)))
	}
	for _, u := range us {
		if u < 0 || u >= 1 {
			panic(fmt.Sprintf("lottery: uniform variate %v out of [0,1)", u))
		}
	}
	gmin := s.nodes[1].min
	total := s.nodes[1].sum - s.nodes[1].cnt*gmin
	if total <= 0 || math.IsInf(total, 0) || math.IsNaN(total) {
		for k, u := range us {
			out[k] = int(u * float64(s.n)) // uniform fallback
		}
		return
	}
	k := 0
	for ; k+lanes <= len(us); k += lanes {
		n0, r0 := 1, us[k]*total
		n1, r1 := 1, us[k+1]*total
		n2, r2 := 1, us[k+2]*total
		n3, r3 := 1, us[k+3]*total
		for n0 < s.size { // every leaf sits at the same depth
			n0, r0 = s.down(n0, r0, gmin)
			n1, r1 = s.down(n1, r1, gmin)
			n2, r2 = s.down(n2, r2, gmin)
			n3, r3 = s.down(n3, r3, gmin)
		}
		out[k], out[k+1], out[k+2], out[k+3] = s.leaf(n0), s.leaf(n1), s.leaf(n2), s.leaf(n3)
	}
	for ; k < len(us); k++ {
		n, r := 1, us[k]*total
		for n < s.size {
			n, r = s.down(n, r, gmin)
		}
		out[k] = s.leaf(n)
	}
}

// down takes one level of the descent for the residual variate r: go left
// iff r < effL, the left subtree's shifted weight, else subtract effL and
// go right. The direction is a 0/1 integer and the subtraction is masked
// by it, so there is no data-dependent branch, and r − 0 and r − effL are
// the very values the branching form computes. effL is clamped at 0
// against floating point drift; r never drops below 0, so the comparison
// gives the same direction before the clamp, which keeps the clamp off
// the path to the next level's load.
func (s *Sampler) down(node int, r, gmin float64) (int, float64) {
	l := 2 * node
	ln := &s.nodes[l]
	effL := ln.sum - ln.cnt*gmin
	right := 0
	if !(r < effL) {
		right = 1
	}
	return l + right, r - math.Float64frombits(math.Float64bits(max(effL, 0))&-uint64(right))
}

// leaf maps a leaf node to its item index. Drift into a padding leaf
// clamps to the last real item.
func (s *Sampler) leaf(node int) int {
	return min(node-s.size, s.n-1)
}

// Weight returns the shifted weight of item i, T_i − T_min, the quantity
// the draw is proportional to.
func (s *Sampler) Weight(i int) float64 { return s.Ticket(i) - s.nodes[1].min }

func (s *Sampler) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("lottery: index %d out of range [0,%d)", i, s.n))
	}
}
