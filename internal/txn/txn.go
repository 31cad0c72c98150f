// Package txn defines the transaction model of the web-database system:
// user query transactions and update transactions, their priority ordering
// (updates above queries, earliest-deadline-first within a class, paper
// §3.1), and the four user-query outcomes of paper §2.1 — success,
// rejection, deadline-missed failure (DMF) and data-stale failure (DSF).
package txn

import "fmt"

// Class is the transaction class. Updates are dispatched above queries
// (dual-priority ready queue).
type Class int

const (
	// ClassQuery is a user query transaction.
	ClassQuery Class = iota
	// ClassUpdate is an update transaction.
	ClassUpdate
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassQuery:
		return "query"
	case ClassUpdate:
		return "update"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Outcome is the final fate of a user query (paper §2.1).
type Outcome int

const (
	// OutcomePending marks a query still in flight.
	OutcomePending Outcome = iota
	// OutcomeSuccess: admitted, met deadline and freshness requirement.
	OutcomeSuccess
	// OutcomeRejected: refused by admission control.
	OutcomeRejected
	// OutcomeDMF: admitted but missed its firm deadline.
	OutcomeDMF
	// OutcomeDSF: met the deadline but read data staler than required.
	OutcomeDSF
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case OutcomePending:
		return "pending"
	case OutcomeSuccess:
		return "success"
	case OutcomeRejected:
		return "rejected"
	case OutcomeDMF:
		return "dmf"
	case OutcomeDSF:
		return "dsf"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Txn is one transaction instance flowing through the system. A query
// reads Items under shared locks; an update writes Items[0] under an
// exclusive lock. Times are in seconds; Deadline is absolute.
type Txn struct {
	ID      int64
	Class   Class
	Arrival float64
	// Deadline is the absolute firm deadline. For updates it is the next
	// period boundary (used only for EDF ordering within the class).
	Deadline float64
	// Exec is the total service demand; Remaining is what is left (restored
	// to Exec on a 2PL-HP restart).
	Exec      float64
	Remaining float64
	Items     []int

	// Query-only fields.
	RelDeadline float64 // qt_i: Deadline − Arrival
	FreshReq    float64 // qf_i in (0, 1]
	EstExec     float64 // qe_i: the optimizer's execution-time estimate
	// PrefClass is the user-preference class (multi-preference extension,
	// paper §3.1); negative means the system-wide weights apply.
	PrefClass int
	// GatherID correlates the per-shard slices of one logical multi-item
	// query in a sharded run; zero for ordinary (unsharded) queries.
	GatherID int64

	// Restarts counts 2PL-HP aborts followed by restart.
	Restarts int

	// ReadFreshness is the lag-based freshness of the read set sampled when
	// the query (last) started reading; the commit-time DSF check uses it.
	// A restart resamples because the transaction re-reads from scratch.
	ReadFreshness float64
	readSampled   bool
	// blocked is the engine's lock-wait mark; it sits beside readSampled so
	// the two flags share a word.
	blocked bool

	// Outcome is set exactly once when the transaction leaves the system.
	Outcome Outcome

	// Owner is an opaque back-pointer for the driver that built the
	// transaction: the live server hangs its per-request state here, so a
	// transaction popped from the shared ready queue finds its request
	// without a side map. The simulator hangs an admitted query's pooled
	// deadline timer here until the query resolves or is abandoned.
	Owner any
}

// NewQuery builds a user query transaction. Deadline is arrival+rel.
func NewQuery(id int64, arrival float64, items []int, exec, rel, freshReq float64) *Txn {
	return &Txn{
		ID:          id,
		Class:       ClassQuery,
		Arrival:     arrival,
		Deadline:    arrival + rel,
		Exec:        exec,
		Remaining:   exec,
		Items:       items,
		RelDeadline: rel,
		FreshReq:    freshReq,
		EstExec:     exec,
		PrefClass:   -1,
	}
}

// NewUpdate builds an update transaction for a single data item. deadline
// is the absolute EDF ordering deadline (typically arrival + period).
func NewUpdate(id int64, arrival float64, item int, exec, deadline float64) *Txn {
	return &Txn{
		ID:        id,
		Class:     ClassUpdate,
		Arrival:   arrival,
		Deadline:  deadline,
		Exec:      exec,
		Remaining: exec,
		Items:     []int{item},
	}
}

// Item returns the single data item of an update transaction.
// It panics for queries.
func (t *Txn) Item() int {
	if t.Class != ClassUpdate {
		panic("txn: Item() on a non-update transaction")
	}
	return t.Items[0]
}

// Slack returns the spare time before the deadline assuming the transaction
// starts now and runs uninterrupted.
func (t *Txn) Slack(now float64) float64 {
	return t.Deadline - now - t.Remaining
}

// Expired reports whether the firm deadline has passed.
func (t *Txn) Expired(now float64) bool { return now >= t.Deadline }

// ResetForRestart restores the full service demand after a 2PL-HP abort.
// The restarted transaction will re-read its items, so the read-freshness
// sample is discarded.
func (t *Txn) ResetForRestart() {
	t.Remaining = t.Exec
	t.Restarts++
	t.readSampled = false
}

// ReadSampled reports whether the current execution attempt has sampled its
// read freshness.
func (t *Txn) ReadSampled() bool { return t.readSampled }

// MarkReadSampled records that ReadFreshness holds this attempt's sample.
func (t *Txn) MarkReadSampled() { t.readSampled = true }

// Blocked reports whether the transaction is waiting on a lock.
func (t *Txn) Blocked() bool { return t.blocked }

// SetBlocked marks the lock-wait state; used by the engine.
func (t *Txn) SetBlocked(b bool) { t.blocked = b }

// HigherPriority reports whether t precedes u in dispatch order: updates
// above queries, then earlier deadline, then lower id for determinism.
func (t *Txn) HigherPriority(u *Txn) bool {
	if t.Class != u.Class {
		return t.Class == ClassUpdate
	}
	if t.Deadline != u.Deadline {
		return t.Deadline < u.Deadline
	}
	return t.ID < u.ID
}

// String renders a short debugging description.
func (t *Txn) String() string {
	return fmt.Sprintf("%s#%d(dl=%.3f rem=%.3f items=%v)", t.Class, t.ID, t.Deadline, t.Remaining, t.Items)
}
