// Package admission implements UNIT's Query Admission Control (paper §3.3).
// A candidate query passes two gates:
//
//  1. Transaction deadline check — using the earliest-possible start time
//     (EST) implied by the ready queue, admit only when
//     C_flex·EST + qe < qt. C_flex is the controller's tightness knob:
//     TAC/LAC signals move it ±10% around its initial value of 1.
//  2. System USM check — admitting the candidate delays the queued queries
//     behind it in EDF order; if the summed DMF penalty of the queries it
//     would newly endanger exceeds the candidate's rejection penalty C_r,
//     rejecting is the cheaper choice and the candidate is refused.
//
// Both gates are one O(N_rq) walk of the query class in dispatch order, as
// the paper prices them. The ready queue (package readyq) keeps that class
// sorted, so AdmitOrdered walks it in place: the queries ahead of the
// candidate are a prefix whose summed Remaining is gate 1's EST, and gate 2
// carries the same running sum over the rest. Txn.HigherPriority is a
// strict total order, so the dispatch order is unique and the walk adds the
// same floats in the same sequence as a walk over a sorted snapshot would —
// every decision and counter is bit-identical either way (pinned by the
// oracle property test). Admit is that snapshot-and-sort path, kept for
// views that are not a readyq.Queue and cannot promise an order; it is the
// only user of the controller's scratch buffer.
package admission

import (
	"fmt"
	"slices"

	"unitdb/internal/core/usm"
	"unitdb/internal/txn"
)

// QueueView is the queue state Admit decides on when the caller has no
// ordered ready queue to hand to AdmitOrdered.
type QueueView interface {
	// RunningRemaining returns the remaining service demand of the
	// currently executing transaction (0 when the CPU is idle).
	RunningRemaining() float64
	// UpdateBacklog returns the summed remaining demand of queued updates,
	// all of which dispatch ahead of any query.
	UpdateBacklog() float64
	// QueuedQueries returns the queries in the ready queue, any order.
	QueuedQueries() []*txn.Txn
}

// Reason says why a query was rejected.
type Reason int

const (
	// Admitted means the query passed both checks.
	Admitted Reason = iota
	// RejectedDeadline means the deadline check failed: the query has
	// little chance to finish in time.
	RejectedDeadline
	// RejectedUSM means the system USM check failed: admitting would
	// endanger more penalty than rejecting costs.
	RejectedUSM
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case Admitted:
		return "admitted"
	case RejectedDeadline:
		return "rejected-deadline"
	case RejectedUSM:
		return "rejected-usm"
	default:
		return fmt.Sprintf("Reason(%d)", int(r))
	}
}

// Resolver maps a transaction to its effective USM weights — the hook for
// heterogeneous user preferences (multi-preference extension, paper §3.1).
type Resolver func(*txn.Txn) usm.Weights

// step is the TAC/LAC multiplicative step on C_flex: the paper's 10%.
const step = 0.10

// Controller is the admission-control state machine.
type Controller struct {
	weights usm.Weights
	resolve Resolver
	cflex   float64
	minFlex float64
	maxFlex float64

	admitted         int
	rejectedDeadline int
	rejectedUSM      int

	// scratch is Admit's reusable snapshot buffer. A Controller is
	// single-caller by design (the simulator's event loop or the live
	// server under its mutex), so one buffer suffices.
	scratch []*txn.Txn
}

// Option configures a Controller.
type Option func(*Controller)

// WithFlexBounds overrides the clamp range of C_flex (default [0.001, 16]).
// The low floor matters: under a sustained update overload the backlog-based
// EST is huge for every candidate, and repeated Loosen signals must be able
// to effectively disarm the deadline check so admissions resume and the
// controller can observe DMFs (which is what triggers update degradation).
func WithFlexBounds(min, max float64) Option {
	return func(c *Controller) {
		if min <= 0 || max < min {
			panic(fmt.Sprintf("admission: bad flex bounds [%v,%v]", min, max))
		}
		c.minFlex, c.maxFlex = min, max
	}
}

// WithResolver installs a per-transaction weight resolver for
// heterogeneous preference populations. Without one, the controller's own
// weights apply to every transaction.
func WithResolver(r Resolver) Option {
	return func(c *Controller) { c.resolve = r }
}

// New creates a controller with C_flex = 1 (the paper's initial value).
func New(w usm.Weights, opts ...Option) *Controller {
	if err := w.Validate(); err != nil {
		panic(err)
	}
	c := &Controller{weights: w, cflex: 1, minFlex: 0.001, maxFlex: 16}
	c.resolve = func(*txn.Txn) usm.Weights { return c.weights }
	for _, o := range opts {
		o(c)
	}
	return c
}

// CFlex returns the current lag ratio C_flex.
func (c *Controller) CFlex() float64 { return c.cflex }

// AtFloor reports whether C_flex sits at its lower clamp — i.e. admission
// control is as loose as it can get and further Loosen signals are no-ops.
func (c *Controller) AtFloor() bool { return c.cflex <= c.minFlex }

// Tighten applies a TAC signal: C_flex grows by the step, making the
// deadline check stricter.
func (c *Controller) Tighten() {
	c.cflex *= 1 + step
	if c.cflex > c.maxFlex {
		c.cflex = c.maxFlex
	}
}

// Loosen applies an LAC signal: C_flex shrinks by the step, letting more
// queries in.
func (c *Controller) Loosen() {
	c.cflex *= 1 - step
	if c.cflex < c.minFlex {
		c.cflex = c.minFlex
	}
}

// Stats returns the cumulative admission decisions.
func (c *Controller) Stats() (admitted, rejectedDeadline, rejectedUSM int) {
	return c.admitted, c.rejectedDeadline, c.rejectedUSM
}

// Admit decides on a view that cannot promise an order: it snapshots the
// queued queries into the controller's scratch buffer, sorts them under
// Txn.HigherPriority, and runs AdmitOrdered over the result. Callers that
// hold a readyq.Queue call AdmitOrdered directly; this path remains for
// views assembled from loose transactions.
func (c *Controller) Admit(now float64, q *txn.Txn, view QueueView) Reason {
	queued := append(c.scratch[:0], view.QueuedQueries()...)
	c.scratch = queued[:0]
	slices.SortFunc(queued, func(a, b *txn.Txn) int {
		if a.HigherPriority(b) {
			return -1
		}
		if b.HigherPriority(a) {
			return 1
		}
		return 0
	})
	return c.AdmitOrdered(now, q, view.RunningRemaining()+view.UpdateBacklog(), queued)
}

// AdmitOrdered runs both admission gates for candidate q at the given
// time, updating the decision counters. ahead is the work dispatched
// before any query (running remainder plus update backlog); queued is the
// query class of the ready queue in dispatch order — sorted under
// Txn.HigherPriority, as readyq.Queue.EDFQueries returns it — and is only
// read. One pass, no allocation.
func (c *Controller) AdmitOrdered(now float64, q *txn.Txn, ahead float64, queued []*txn.Txn) Reason {
	if q.Class != txn.ClassQuery {
		panic(fmt.Sprintf("admission: Admit on non-query %v", q))
	}
	// Gate 1 — transaction deadline check: C_flex·EST + qe < qt, with EST
	// the work dispatched ahead of q: ahead plus the queued queries with
	// earlier deadlines, which in dispatch order are exactly a prefix.
	prefix := ahead
	i := 0
	for ; i < len(queued) && queued[i].HigherPriority(q); i++ {
		prefix += queued[i].Remaining
	}
	if now+c.cflex*prefix+q.EstExec >= q.Deadline {
		c.rejectedDeadline++
		return RejectedDeadline
	}

	// Gate 2 — system USM check: q delays every queued query behind it by
	// qe. Carrying the same running prefix over the rest of the queue, sum
	// the DMF penalties of the queries that delay newly endangers (they
	// would have finished in time without q, and no longer would). When
	// that exceeds the candidate's rejection cost, reject. The gate is
	// inert when both C_fm and C_r are zero (naive USM setting).
	endangeredCost := 0.0
	for _, other := range queued[i:] {
		finish := now + prefix + other.Remaining
		wasSafe := finish < other.Deadline
		nowLate := finish+q.EstExec >= other.Deadline
		if wasSafe && nowLate {
			endangeredCost += c.resolve(other).Cfm
		}
		prefix += other.Remaining
	}
	if endangeredCost > c.resolve(q).Cr {
		c.rejectedUSM++
		return RejectedUSM
	}
	c.admitted++
	return Admitted
}
