package metrics

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("unit_test_total", "a counter", Label{Key: "outcome", Value: "success"})
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same (name, labels) returns the same handle.
	if again := r.Counter("unit_test_total", "a counter", Label{Key: "outcome", Value: "success"}); again != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("unit_test_gauge", "a gauge")
	g.Set(-2.5)
	if got := g.Value(); got != -2.5 {
		t.Fatalf("gauge = %v, want -2.5", got)
	}
}

func TestCounterNegativeAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	(&Counter{}).Add(-1)
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("unit_conflict", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Gauge("unit_conflict", "")
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("unit_lat", "latency", 0, 1, 4) // buckets .25 wide
	for _, v := range []float64{-0.1, 0.1, 0.3, 0.3, 0.9, 1.5} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if s.Under != 1 || s.Over != 1 {
		t.Fatalf("under/over = %d/%d, want 1/1", s.Under, s.Over)
	}
	// Cumulative: bucket bounds .25/.5/.75/1.0 → 2 (under + 0.1), 4, 4, 5.
	want := []int64{2, 4, 4, 5}
	for i, w := range want {
		if s.Cumulative[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (all %v)", i, s.Cumulative[i], w, s.Cumulative)
		}
	}
	if math.Abs(s.Sum-(-0.1+0.1+0.3+0.3+0.9+1.5)) > 1e-12 {
		t.Fatalf("sum = %v", s.Sum)
	}
	// Rehydration into stats.Histogram reuses its estimators.
	sh := s.Stats()
	if sh.Count() != 6 {
		t.Fatalf("rehydrated count = %d, want 6", sh.Count())
	}
	if mean := sh.Mean(); math.Abs(mean-s.Sum/6) > 1e-12 {
		t.Fatalf("rehydrated mean = %v, want %v", mean, s.Sum/6)
	}
	if q := sh.Quantile(0.5); q < 0.25 || q > 0.5 {
		t.Fatalf("median estimate %v outside the occupied bucket", q)
	}
}

func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("unit_lat_ex", "latency", 0, 1, 4) // buckets .25 wide
	h.ObserveEx(0.1, 7)
	h.ObserveEx(0.3, 8)
	h.ObserveEx(0.3, 9)   // same bucket: most recent id wins
	h.ObserveEx(-0.5, 10) // underflow
	h.ObserveEx(1.5, 11)  // overflow
	h.Observe(0.9)        // no exemplar: bucket stays id-less
	s := h.snapshot()
	if want := []int64{7, 9, 0, 0}; len(s.Exemplars) != 4 ||
		s.Exemplars[0] != want[0] || s.Exemplars[1] != want[1] ||
		s.Exemplars[2] != want[2] || s.Exemplars[3] != want[3] {
		t.Fatalf("exemplars = %v, want %v", s.Exemplars, want)
	}
	if s.UnderEx != 10 || s.OverEx != 11 {
		t.Fatalf("edge exemplars = %d/%d, want 10/11", s.UnderEx, s.OverEx)
	}
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6 (ObserveEx must still count)", s.Count)
	}
}

func TestObserveExZeroKeepsPriorExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("unit_lat_keep", "latency", 0, 1, 2)
	h.ObserveEx(0.1, 42)
	h.Observe(0.1) // exemplar-less observation must not erase id 42
	if s := h.snapshot(); s.Exemplars[0] != 42 {
		t.Fatalf("exemplar = %d, want 42 preserved", s.Exemplars[0])
	}
}

// TestSnapshotOrderingIsStable registers families and series in
// reverse-sorted order, more of each than fit one map group, so map
// iteration never yields sorted order by chance: Snapshot must sort
// both levels itself, or this fails on every run.
func TestSnapshotOrderingIsStable(t *testing.T) {
	const n = 12
	r := NewRegistry()
	for f := n - 1; f >= 0; f-- {
		for s := n - 1; s >= 0; s-- {
			r.Counter(fmt.Sprintf("unit_f%02d_total", f), "", Label{Key: "x", Value: fmt.Sprintf("%02d", s)})
		}
	}
	snap := r.Snapshot()
	if len(snap) != n {
		t.Fatalf("%d families, want %d", len(snap), n)
	}
	for f, fs := range snap {
		if want := fmt.Sprintf("unit_f%02d_total", f); fs.Name != want {
			t.Fatalf("family %d = %s, want %s: families out of order", f, fs.Name, want)
		}
		if len(fs.Series) != n {
			t.Fatalf("%s has %d series, want %d", fs.Name, len(fs.Series), n)
		}
		for s, ss := range fs.Series {
			if want := fmt.Sprintf("%02d", s); ss.Labels[0].Value != want {
				t.Fatalf("%s series %d has x=%s, want %s: series out of order", fs.Name, s, ss.Labels[0].Value, want)
			}
		}
	}
}

// TestConcurrentHotPath hammers one counter, gauge and histogram from
// many goroutines while snapshots run — under -race this pins the
// lock-free hot path, and the final counts must be exact.
func TestConcurrentHotPath(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("unit_hammer_total", "")
	g := r.Gauge("unit_hammer_gauge", "")
	h := r.Histogram("unit_hammer_hist", "", 0, 1, 10)
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent scraper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i%10) / 10)
			}
		}(w)
	}
	for c.Value() < workers*perWorker {
	}
	close(stop)
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := h.snapshot().Count; got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}
