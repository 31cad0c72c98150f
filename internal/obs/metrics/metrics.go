// Package metrics is a lock-cheap metrics registry for the live server:
// counters, gauges and fixed-bucket latency histograms whose hot-path
// updates are single atomic operations, so query workers never contend
// with a /metrics scrape. Registration (naming a series) takes the
// registry mutex once; the returned handle is then updated lock-free.
// Reads are snapshot-on-read: Snapshot walks the registered series and
// loads their atomics without stopping writers, which is the standard
// Prometheus collection contract (per-series values are exact, cross-
// series consistency is approximate).
//
// The histogram shares its bucket layout with internal/stats.Histogram —
// equal-width buckets over [lo, hi) with underflow and overflow — and a
// snapshot can be rehydrated into one (Stats) for quantile estimation.
package metrics

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"unitdb/internal/stats"
)

// Kind is the exposition type of a metric family.
type Kind string

// Metric family kinds, matching Prometheus TYPE values.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Label is one name="value" pair qualifying a series within a family.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

var (
	nameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Counter is a monotonically increasing integer. Inc and Add are a single
// atomic add; Value is a single atomic load.
type Counter struct {
	v atomic.Int64 // typed handle: c.v++ does not compile, a copy is a vet copylocks finding
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative n panics (counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("metrics: counter add of negative %d", n))
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float64 value. Set and Value are a single
// atomic store/load of the float bits.
type Gauge struct {
	bits atomic.Uint64 // float64 bits; a typed handle, like Counter.v
}

// Set records the current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last value Set.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram over [lo, hi) with underflow and
// overflow buckets — the same layout as stats.Histogram, observed through
// atomics so Observe never blocks. The sum accumulates via CAS on the
// float bits; bucket counts are plain atomic adds.
//
// Each bucket additionally remembers an exemplar: the opaque id (a
// query/trace id) of the most recent observation that landed in it,
// recorded by ObserveEx. An exemplar links a fat tail bucket back to the
// exact trace span that fattened it — /debug/slow and
// /debug/trace?query=<id> complete the loop. Exemplar id 0 means "none"
// (callers allocate ids starting at 1).
//
// Every atomic field is a typed handle, so a plain read or write does not
// compile and a copy is a vet copylocks finding.
type Histogram struct {
	lo, hi    float64
	width     float64
	buckets   []atomic.Int64
	exemplars []atomic.Int64 // per-bucket most recent id
	under     atomic.Int64
	over      atomic.Int64
	underEx   atomic.Int64
	overEx    atomic.Int64
	sumBits   atomic.Uint64 // float64 bits, CAS loop in Observe
}

func newHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 {
		panic("metrics: histogram with non-positive bucket count")
	}
	if hi <= lo {
		panic("metrics: histogram with empty range")
	}
	return &Histogram{
		lo: lo, hi: hi, width: (hi - lo) / float64(n),
		buckets:   make([]atomic.Int64, n),
		exemplars: make([]atomic.Int64, n),
	}
}

// Observe records one sample without an exemplar.
func (h *Histogram) Observe(x float64) { h.ObserveEx(x, 0) }

// ObserveEx records one sample and, when exemplar is non-zero, stamps it
// as the landing bucket's most recent exemplar. The bucket count and the
// exemplar are separate atomics — a racing snapshot may pair a count
// with a neighboring observation's id, which is fine: an exemplar is a
// representative, not an inventory.
func (h *Histogram) ObserveEx(x float64, exemplar int64) {
	switch {
	case x < h.lo:
		h.under.Add(1)
		if exemplar != 0 {
			h.underEx.Store(exemplar)
		}
	case x >= h.hi:
		h.over.Add(1)
		if exemplar != 0 {
			h.overEx.Store(exemplar)
		}
	default:
		i := int((x - h.lo) / h.width)
		if i >= len(h.buckets) { // rounding at the top edge
			i = len(h.buckets) - 1
		}
		h.buckets[i].Add(1)
		if exemplar != 0 {
			h.exemplars[i].Store(exemplar)
		}
	}
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + x)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// HistSnapshot is a point-in-time read of a histogram, in Prometheus
// cumulative-bucket form. UpperBounds holds the finite le bounds in
// ascending order; Cumulative[i] counts observations <= UpperBounds[i]
// (underflow included, since underflow is below every bound). Count is
// the total including overflow (the implicit le="+Inf" bucket).
type HistSnapshot struct {
	Lo          float64   `json:"lo"`
	Hi          float64   `json:"hi"`
	UpperBounds []float64 `json:"upper_bounds"`
	Cumulative  []int64   `json:"cumulative"`
	Under       int64     `json:"under"`
	Over        int64     `json:"over"`
	Count       int64     `json:"count"`
	Sum         float64   `json:"sum"`
	// Exemplars[i] is the most recent ObserveEx id that landed in bucket
	// i (aligned with UpperBounds); UnderEx/OverEx cover the two edge
	// buckets. 0 means the bucket has seen no exemplar.
	Exemplars []int64 `json:"exemplars,omitempty"`
	UnderEx   int64   `json:"under_exemplar,omitempty"`
	OverEx    int64   `json:"over_exemplar,omitempty"`
}

// snapshot loads the histogram's atomics. The total is derived from the
// bucket reads themselves so the cumulative series is internally
// monotone even while writers race the read.
func (h *Histogram) snapshot() *HistSnapshot {
	s := &HistSnapshot{
		Lo:          h.lo,
		Hi:          h.hi,
		UpperBounds: make([]float64, len(h.buckets)),
		Cumulative:  make([]int64, len(h.buckets)),
		Exemplars:   make([]int64, len(h.buckets)),
		Under:       h.under.Load(),
		Over:        h.over.Load(),
		UnderEx:     h.underEx.Load(),
		OverEx:      h.overEx.Load(),
		Sum:         math.Float64frombits(h.sumBits.Load()),
	}
	acc := s.Under
	for i := range h.buckets {
		acc += h.buckets[i].Load()
		s.UpperBounds[i] = h.lo + h.width*float64(i+1)
		s.Cumulative[i] = acc
		s.Exemplars[i] = h.exemplars[i].Load()
	}
	s.Count = acc + s.Over
	return s
}

// Stats rehydrates the snapshot into a stats.Histogram, reusing its
// quantile and mean estimators for reporting.
func (s *HistSnapshot) Stats() *stats.Histogram {
	buckets := make([]int, len(s.Cumulative))
	prev := s.Under
	for i, c := range s.Cumulative {
		buckets[i] = int(c - prev)
		prev = c
	}
	return stats.HistogramFromBuckets(s.Lo, s.Hi, buckets, int(s.Under), int(s.Over), s.Sum)
}

// series is one registered (family, labels) pair.
type series struct {
	labels []Label
	key    string // rendered label set, the sort key
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// family is one metric name with its help text, kind, and series.
type family struct {
	name   string
	help   string
	kind   Kind
	lo, hi float64 // histogram layout
	n      int
	series map[string]*series
}

// Registry holds metric families. The mutex only guards registration and
// snapshotting bookkeeping — never the handles' update paths. No field
// is goroutine-owned: handles are shared by design and updated through
// atomics, and Snapshot sorts its output so map iteration over families
// never leaks into the exposition order (TestSnapshotOrderingIsStable
// and promtext's TestGoldenExposition check exactly that).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family // guarded by mu
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey renders a label set into a canonical sort/lookup key.
func labelKey(labels []Label) string {
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Key + "=" + l.Value
	}
	return strings.Join(parts, ",")
}

// checkName panics on malformed metric or label names — registration is
// init-time programmer input, not request data.
func checkName(name string, labels []Label) {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelRE.MatchString(l.Key) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %s", l.Key, name))
		}
	}
}

// lookup finds or creates the family and series slot.
func (r *Registry) lookup(name, help string, kind Kind, labels []Label) *series {
	checkName(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	key := labelKey(labels)
	s := f.series[key]
	if s == nil {
		s = &series{labels: append([]Label(nil), labels...), key: key}
		f.series[key] = s
	}
	return s
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, KindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ctr == nil {
		s.ctr = &Counter{}
	}
	return s.ctr
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, KindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// Histogram registers (or returns the existing) histogram series with n
// equal-width buckets over [lo, hi). Conflicting layouts for the same
// family panic.
func (r *Registry) Histogram(name, help string, lo, hi float64, n int, labels ...Label) *Histogram {
	s := r.lookup(name, help, KindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f.n == 0 {
		f.lo, f.hi, f.n = lo, hi, n
	} else if f.lo != lo || f.hi != hi || f.n != n {
		panic(fmt.Sprintf("metrics: %s bucket layout conflict", name))
	}
	if s.hist == nil {
		s.hist = newHistogram(lo, hi, n)
	}
	return s.hist
}

// SeriesSnapshot is one series' point-in-time read.
type SeriesSnapshot struct {
	Labels []Label       `json:"labels,omitempty"`
	Value  float64       `json:"value"`
	Hist   *HistSnapshot `json:"hist,omitempty"`
}

// FamilySnapshot is one family's point-in-time read, series sorted by
// label key.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help"`
	Kind   Kind             `json:"kind"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot reads every registered series without blocking writers:
// the registry mutex pins the family/series tables while the values are
// plain atomic loads. Families are sorted by name, series by label set,
// so two snapshots of the same registry expose in the same order.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FamilySnapshot, 0, len(r.families))
	for _, f := range r.families {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			ss := SeriesSnapshot{Labels: s.labels}
			switch {
			case s.ctr != nil:
				ss.Value = float64(s.ctr.Value())
			case s.gauge != nil:
				ss.Value = s.gauge.Value()
			case s.hist != nil:
				ss.Hist = s.hist.snapshot()
			}
			fs.Series = append(fs.Series, ss)
		}
		out = append(out, fs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
