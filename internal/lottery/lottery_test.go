package lottery

import (
	"math"
	"testing"
	"testing/quick"

	"unitdb/internal/stats"
)

func TestNewSamplerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSampler(0) did not panic")
		}
	}()
	NewSampler(0)
}

func TestSetTicketRoundTrip(t *testing.T) {
	s := NewSampler(5)
	for i := 0; i < 5; i++ {
		s.Set(i, float64(i)*1.5-2)
	}
	for i := 0; i < 5; i++ {
		if got := s.Ticket(i); got != float64(i)*1.5-2 {
			t.Fatalf("Ticket(%d) = %v", i, got)
		}
	}
}

func TestSumMinInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 1 + rng.Intn(40)
		s := NewSampler(n)
		ref := make([]float64, n)
		for op := 0; op < 100; op++ {
			i := rng.Intn(n)
			v := rng.Normal(0, 10)
			switch rng.Intn(3) {
			case 0:
				s.Set(i, v)
				ref[i] = v
			case 1:
				s.Add(i, v)
				ref[i] += v
			case 2:
				s.Scale(0.9)
				for j := range ref {
					ref[j] *= 0.9
				}
			}
			sum, min := 0.0, math.Inf(1)
			for _, x := range ref {
				sum += x
				if x < min {
					min = x
				}
			}
			if math.Abs(s.Sum()-sum) > 1e-6 || math.Abs(s.Min()-min) > 1e-9 {
				return false
			}
			if math.Abs(s.EffectiveTotal()-(sum-float64(n)*min)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleProportions(t *testing.T) {
	// Tickets 0, 10, 30: shifted weights 0, 10, 30 -> item 0 never drawn,
	// items 1 and 2 drawn 1:3.
	s := NewSampler(3)
	s.Set(1, 10)
	s.Set(2, 30)
	rng := stats.NewRNG(5)
	counts := make([]int, 3)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[s.Sample(rng.Float64())]++
	}
	if counts[0] != 0 {
		t.Fatalf("minimum-ticket item drawn %d times", counts[0])
	}
	got := float64(counts[2]) / float64(counts[1])
	if math.Abs(got-3) > 0.1 {
		t.Fatalf("draw ratio %v, want ~3", got)
	}
}

func TestSampleNegativeTickets(t *testing.T) {
	// Shift-by-min must handle all-negative tickets: -30, -20, -10 gives
	// shifted weights 0, 10, 20.
	s := NewSampler(3)
	s.Set(0, -30)
	s.Set(1, -20)
	s.Set(2, -10)
	rng := stats.NewRNG(6)
	counts := make([]int, 3)
	for i := 0; i < 150000; i++ {
		counts[s.Sample(rng.Float64())]++
	}
	if counts[0] != 0 {
		t.Fatalf("min item drawn %d times", counts[0])
	}
	got := float64(counts[2]) / float64(counts[1])
	if math.Abs(got-2) > 0.1 {
		t.Fatalf("ratio %v, want ~2", got)
	}
}

func TestSampleUniformFallback(t *testing.T) {
	s := NewSampler(4)
	for i := 0; i < 4; i++ {
		s.Set(i, 7) // all equal -> zero shifted weight everywhere
	}
	rng := stats.NewRNG(7)
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[s.Sample(rng.Float64())]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("uniform fallback skewed: item %d drawn %d/40000", i, c)
		}
	}
}

func TestSampleAlwaysInRange(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 1 + rng.Intn(33) // exercise non-power-of-two padding
		s := NewSampler(n)
		for i := 0; i < n; i++ {
			s.Set(i, rng.Normal(0, 5))
		}
		for d := 0; d < 200; d++ {
			i := s.Sample(rng.Float64())
			if i < 0 || i >= n {
				return false
			}
			// The global minimum item must never be drawn unless all are equal.
			if s.EffectiveTotal() > 1e-9 && s.Weight(i) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refSample is the branching root-to-leaf descent Sample used before the
// batch draw: the specification SampleN must reproduce bit for bit.
func refSample(s *Sampler, u float64) int {
	gmin := s.nodes[1].min
	total := s.nodes[1].sum - s.nodes[1].cnt*gmin
	if total <= 0 || math.IsInf(total, 0) || math.IsNaN(total) {
		return int(u * float64(s.n))
	}
	r := u * total
	node := 1
	for node < s.size {
		l := 2 * node
		effL := s.nodes[l].sum - s.nodes[l].cnt*gmin
		if effL < 0 {
			effL = 0
		}
		if r < effL {
			node = l
		} else {
			r -= effL
			node = l + 1
		}
	}
	return min(node-s.size, s.n-1)
}

func TestSampleNMatchesSample(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 1 + rng.Intn(70) // mostly not a power of two
		s := NewSampler(n)
		switch rng.Intn(5) {
		case 0: // all equal: the uniform fallback
			v := rng.Normal(0, 5)
			for i := 0; i < n; i++ {
				s.Set(i, v)
			}
		case 1: // all equal but one: a single item carries the whole weight
			v := rng.Normal(0, 5)
			for i := 0; i < n; i++ {
				s.Set(i, v)
			}
			s.Set(rng.Intn(n), v+rng.Float64())
		case 2: // all negative
			for i := 0; i < n; i++ {
				s.Set(i, -1-rng.Float64()*10)
			}
		default: // mixed signs over several magnitudes
			scale := math.Pow(10, float64(rng.Intn(7)-3))
			for i := 0; i < n; i++ {
				s.Set(i, rng.Normal(0, scale))
			}
		}
		// Variates at the edges of [0, 1) and exactly on the cumulative
		// weight boundaries, where the < versus >= choice decides the item.
		us := []float64{0, math.SmallestNonzeroFloat64, 1e-12, 0.5, 1 - 1e-12, math.Nextafter(1, 0)}
		if total := s.EffectiveTotal(); total > 0 {
			cum := 0.0
			for i := 0; i < n; i++ {
				cum += s.Weight(i)
				u := cum / total
				for _, v := range []float64{math.Nextafter(u, 0), u, math.Nextafter(u, 1)} {
					if v < 1 {
						us = append(us, v)
					}
				}
			}
		}
		for i := rng.Intn(40); i > 0; i-- {
			us = append(us, rng.Float64())
		}
		// Every batch length up to len(us), so the lane tail is exercised
		// at each remainder.
		out := make([]int, len(us))
		for b := 0; b <= len(us); b++ {
			s.SampleN(us[:b], out)
			for k, u := range us[:b] {
				if out[k] != s.Sample(u) || out[k] != refSample(s, u) {
					t.Logf("n=%d u=%v: SampleN %d, Sample %d, reference %d", n, u, out[k], s.Sample(u), refSample(s, u))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleNPanics(t *testing.T) {
	s := NewSampler(2)
	for name, fn := range map[string]func(){
		"short out":   func() { s.SampleN([]float64{0.1, 0.2}, make([]int, 1)) },
		"bad variate": func() { s.SampleN([]float64{0.1, 0.2, 0.3, 0.4, 1}, make([]int, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SampleN with %s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// sampleSink keeps the benchmarked draws live.
var sampleSink int

func BenchmarkSample(b *testing.B) {
	s, us, _ := benchLedger()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range us {
			sampleSink += s.Sample(u)
		}
	}
}

// BenchmarkSampleN is one Degrade signal's batch: 1,024 draws over 1,024
// items.
func BenchmarkSampleN(b *testing.B) {
	s, us, out := benchLedger()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleN(us, out)
	}
}

func benchLedger() (*Sampler, []float64, []int) {
	const n = 1024
	rng := stats.NewRNG(1)
	s := NewSampler(n)
	us := make([]float64, n)
	for i := range us {
		s.Set(i, rng.Normal(0, 5))
		us[i] = rng.Float64()
	}
	return s, us, make([]int, n)
}

func TestSamplePanicsOnBadVariate(t *testing.T) {
	s := NewSampler(2)
	for _, u := range []float64{-0.1, 1.0, 2.0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Sample(%v) did not panic", u)
				}
			}()
			s.Sample(u)
		}()
	}
}

func TestIndexPanics(t *testing.T) {
	s := NewSampler(3)
	for _, i := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Ticket(%d) did not panic", i)
				}
			}()
			s.Ticket(i)
		}()
	}
}

func TestStrideProportional(t *testing.T) {
	s := NewStride()
	s.Join(0, 100)
	s.Join(1, 300)
	counts := map[int]int{}
	for i := 0; i < 4000; i++ {
		counts[s.Next()]++
	}
	ratio := float64(counts[1]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.05 {
		t.Fatalf("stride ratio %v, want 3", ratio)
	}
}

func TestStrideLeave(t *testing.T) {
	s := NewStride()
	s.Join(0, 10)
	s.Join(1, 10)
	if !s.Leave(0) {
		t.Fatal("Leave(0) = false")
	}
	if s.Leave(0) {
		t.Fatal("double Leave(0) = true")
	}
	for i := 0; i < 10; i++ {
		if got := s.Next(); got != 1 {
			t.Fatalf("Next = %d after removing 0", got)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestStridePanics(t *testing.T) {
	s := NewStride()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Next on empty did not panic")
			}
		}()
		s.Next()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Join with zero tickets did not panic")
			}
		}()
		s.Join(1, 0)
	}()
}

func TestStrideLateJoinerNotStarved(t *testing.T) {
	s := NewStride()
	s.Join(0, 10)
	for i := 0; i < 100; i++ {
		s.Next()
	}
	s.Join(1, 10)
	seen := map[int]int{}
	for i := 0; i < 100; i++ {
		seen[s.Next()]++
	}
	if seen[1] < 40 {
		t.Fatalf("late joiner got %d/100 slots", seen[1])
	}
	if seen[0] < 40 {
		t.Fatalf("late joiner monopolized: incumbent got %d/100", seen[0])
	}
}
