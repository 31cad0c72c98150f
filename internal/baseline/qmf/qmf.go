// Package qmf reimplements QMF — Kang, Son & Stankovic, "Managing deadline
// miss ratio and sensor data freshness in real-time databases" (TKDE 2004)
// — the state-of-the-art comparator of the paper's evaluation, from the
// behavioural description in paper §4.1 (the original code is not
// available):
//
//   - A feedback loop monitors CPU utilization, perceived freshness (the
//     fraction of query accesses that read fresh data) and the deadline
//     miss ratio among admitted queries.
//   - With the CPU underutilized, QMF updates more often when the target
//     freshness is not met, otherwise admits more transactions.
//   - With the CPU overloaded, QMF updates less often when the current
//     freshness exceeds the target, otherwise drops incoming transactions
//     until the system recovers.
//   - The adaptive update policy decides whose updates to drop by the
//     ratio of accesses to updates per data item: the least-accessed-per-
//     update items are dropped first.
//
// QMF targets miss ratio and freshness, not the user satisfaction metric —
// the asymmetry UNIT exploits in §4.3–4.5.
package qmf

import (
	"cmp"
	"slices"

	"unitdb/internal/engine"
	"unitdb/internal/stats"
	"unitdb/internal/txn"
)

// Config parameterizes QMF's feedback loop.
type Config struct {
	// ControlPeriod is the sampling period of the loop (seconds).
	ControlPeriod float64
	// TargetFreshness is QMF's perceived-freshness set point.
	TargetFreshness float64
	// TargetMissRatio is the deadline-miss set point among admitted
	// queries.
	TargetMissRatio float64
	// OverloadUtilization is the CPU utilization above which the system
	// counts as overloaded.
	OverloadUtilization float64
	// Step is the per-decision adjustment of the admit and drop fractions.
	Step float64
	// RecomputeEvery throttles the O(n log n) drop-set resort to once per
	// this many control ticks.
	RecomputeEvery int
	// Seed drives the probabilistic admission gate.
	Seed uint64
}

// DefaultConfig returns the configuration used in the reproduction.
func DefaultConfig() Config {
	return Config{
		ControlPeriod:       5,
		TargetFreshness:     0.98,
		TargetMissRatio:     0.10,
		OverloadUtilization: 0.95,
		Step:                0.10,
		RecomputeEvery:      5,
		Seed:                1,
	}
}

// QMF is the policy.
type QMF struct {
	cfg Config
	e   *engine.Engine
	rng *stats.RNG

	admitFrac float64 // probability an incoming query is admitted
	dropFrac  float64 // fraction of items whose updates are dropped

	dropSet   []bool
	acc       []int // per-item committed accesses
	upd       []int // per-item source updates
	feedItems int   // items with an update feed

	// window measurements
	winAdmitted    int
	winMissed      int
	winAccesses    int
	winFreshAccess int
	lastBusy       float64
	ticks          int
	lastDropFrac   float64

	ranked []aur // recomputeDropSet's reusable ranking buffer
}

// aur is one item's access-per-update ratio, the drop-set ranking key.
type aur struct {
	item  int
	ratio float64
}

// New creates a QMF policy.
func New(cfg Config) *QMF {
	if cfg.ControlPeriod <= 0 {
		cfg.ControlPeriod = 5
	}
	if cfg.Step <= 0 {
		cfg.Step = 0.10
	}
	if cfg.RecomputeEvery <= 0 {
		cfg.RecomputeEvery = 1
	}
	return &QMF{cfg: cfg, admitFrac: 1}
}

// Name implements engine.Policy.
func (*QMF) Name() string { return "QMF" }

// Attach implements engine.Policy.
func (q *QMF) Attach(e *engine.Engine) {
	q.e = e
	n := e.Workload().NumItems
	q.rng = stats.NewRNG(q.cfg.Seed)
	q.dropSet = make([]bool, n)
	q.acc = make([]int, n)
	q.upd = make([]int, n)
	q.feedItems = len(e.Workload().Updates)
}

// AdmitFraction returns the current admission probability (introspection).
func (q *QMF) AdmitFraction() float64 { return q.admitFrac }

// DropFraction returns the current update-drop fraction (introspection).
func (q *QMF) DropFraction() float64 { return q.dropFrac }

// AdmitQuery implements engine.Policy: a Bernoulli gate with the loop's
// admit fraction ("drops incoming transactions until the system recovers").
func (q *QMF) AdmitQuery(*txn.Txn) bool {
	if q.admitFrac >= 1 {
		return true
	}
	return q.rng.Float64() < q.admitFrac
}

// AdmitUpdate implements engine.Policy: updates of drop-set items are
// skipped.
func (q *QMF) AdmitUpdate(item int) bool { return !q.dropSet[item] }

// OnSourceUpdate implements engine.Policy.
func (q *QMF) OnSourceUpdate(item int, _ float64) { q.upd[item]++ }

// BeforeQueryDispatch implements engine.Policy.
func (*QMF) BeforeQueryDispatch(*txn.Txn) bool { return true }

// OnQueryDone implements engine.Policy: accumulate the window's perceived
// freshness and miss-ratio measurements.
func (q *QMF) OnQueryDone(t *txn.Txn) {
	switch t.Outcome {
	case txn.OutcomeRejected:
		return
	case txn.OutcomeDMF:
		q.winAdmitted++
		q.winMissed++
	case txn.OutcomeSuccess, txn.OutcomeDSF:
		q.winAdmitted++
		for _, item := range t.Items {
			q.acc[item]++
			q.winAccesses++
		}
		if t.ReadFreshness >= t.FreshReq {
			q.winFreshAccess += len(t.Items)
		}
	}
}

// OnUpdateApplied implements engine.Policy.
func (*QMF) OnUpdateApplied(*txn.Txn) {}

// ControlPeriod implements engine.Policy.
func (q *QMF) ControlPeriod() float64 { return q.cfg.ControlPeriod }

// OnControlTick implements engine.Policy: the QMF feedback decision.
func (q *QMF) OnControlTick() {
	busyQ, busyU := q.e.BusyTime()
	busy := busyQ + busyU
	util := (busy - q.lastBusy) / q.cfg.ControlPeriod
	q.lastBusy = busy

	// Perceived freshness: the fraction of the window's query accesses
	// that read fresh data (Kang's access-weighted QoD metric), blended
	// with database freshness (fraction of update-receiving items that are
	// fresh) which QMF also monitors. The database term is what keeps QMF
	// from shedding cold items' updates as deeply as UNIT does.
	accessFresh := 1.0
	if q.winAccesses > 0 {
		accessFresh = float64(q.winFreshAccess) / float64(q.winAccesses)
	}
	dbFresh := 1.0
	if q.feedItems > 0 {
		dbFresh = 1 - float64(q.e.Store().StaleItems())/float64(q.feedItems)
	}
	fresh := 0.3*dbFresh + 0.7*accessFresh
	miss := 0.0
	if q.winAdmitted > 0 {
		miss = float64(q.winMissed) / float64(q.winAdmitted)
	}
	q.winAdmitted, q.winMissed, q.winAccesses, q.winFreshAccess = 0, 0, 0, 0

	if util < q.cfg.OverloadUtilization {
		// Underutilized: chase freshness first, then admit more.
		if fresh < q.cfg.TargetFreshness {
			q.dropFrac -= q.cfg.Step
		} else {
			q.admitFrac += q.cfg.Step
		}
	} else {
		// Overloaded: shed update load while freshness allows, otherwise
		// shed incoming queries.
		if fresh > q.cfg.TargetFreshness {
			q.dropFrac += q.cfg.Step
		} else {
			q.admitFrac -= q.cfg.Step
		}
	}
	// QMF's defining reflex is its miss-ratio protection: when admitted
	// transactions miss deadlines it sheds incoming queries hard "until
	// the system recovers", and only re-admits once the miss ratio is back
	// under its target. Securing admitted transactions this way is what
	// gives QMF its characteristically high rejection ratio under bursts
	// (paper §4.5) — the success ratio pays for the low miss ratio.
	if miss > q.cfg.TargetMissRatio {
		q.admitFrac *= 0.7
	} else {
		q.admitFrac += q.cfg.Step
	}
	q.clamp()
	q.ticks++
	if q.dropFrac != q.lastDropFrac || q.ticks%q.cfg.RecomputeEvery == 0 {
		q.recomputeDropSet()
		q.lastDropFrac = q.dropFrac
	}
}

func (q *QMF) clamp() {
	if q.admitFrac < 0.05 {
		q.admitFrac = 0.05
	}
	if q.admitFrac > 1 {
		q.admitFrac = 1
	}
	if q.dropFrac < 0 {
		q.dropFrac = 0
	}
	if q.dropFrac > 0.95 {
		q.dropFrac = 0.95
	}
}

// recomputeDropSet marks the dropFrac fraction of update-receiving items
// with the lowest access-per-update ratio for dropping.
func (q *QMF) recomputeDropSet() {
	items := q.ranked[:0]
	for item, u := range q.upd {
		if u == 0 {
			continue // never updated: nothing to drop
		}
		items = append(items, aur{item: item, ratio: float64(q.acc[item]) / float64(u)})
	}
	q.ranked = items
	for i := range q.dropSet {
		q.dropSet[i] = false
	}
	k := int(q.dropFrac * float64(len(items)))
	if k == 0 {
		return
	}
	// (ratio, item) is a total order, so the k lowest are the same set
	// whichever sort finds them.
	slices.SortFunc(items, func(a, b aur) int {
		if c := cmp.Compare(a.ratio, b.ratio); c != 0 {
			return c
		}
		return cmp.Compare(a.item, b.item)
	})
	for _, it := range items[:k] {
		q.dropSet[it.item] = true
	}
}

var _ engine.Policy = (*QMF)(nil)
