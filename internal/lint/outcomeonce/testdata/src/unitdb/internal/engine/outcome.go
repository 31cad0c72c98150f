// Fixture for outcomeonce: a miniature of the engine's query lifecycle.
// Clean functions pin the hand-off and guard conventions; want-lines pin
// the conservation violations.
package engine

type Outcome int

const (
	OutcomePending Outcome = iota
	OutcomeSuccess
	OutcomeRejected
	OutcomeDMF
)

type Txn struct {
	Outcome  Outcome
	Deadline float64
}

type queue struct{ items []*Txn }

func (q *queue) Push(t *Txn) { q.items = append(q.items, t) }

type box struct{ t *Txn }

type Engine struct {
	ready     queue
	finalized int
}

// The sink itself: the guard resolves the non-pending path, the write
// records the outcome on the pending one.
//
//unitlint:outcome q
func (e *Engine) finalizeQuery(q *Txn, o Outcome) {
	if q.Outcome != OutcomePending {
		panic("double finalize")
	}
	q.Outcome = o
	e.finalized++
}

// Clean: every branch finalizes or hands off to the ready queue.
//
//unitlint:outcome q
func (e *Engine) present(q *Txn, admit bool) {
	if admit {
		e.ready.Push(q)
		return
	}
	e.finalizeQuery(q, OutcomeRejected)
}

// One branch forgets: the fall-through path still owes an outcome.
//
//unitlint:outcome q
func (e *Engine) droppy(q *Txn, ok bool) {
	if ok {
		e.finalizeQuery(q, OutcomeSuccess)
	}
	return // want `q may reach this return with its outcome unrecorded`
}

// The unconditional finalize can be the second one.
//
//unitlint:outcome q
func (e *Engine) twice(q *Txn, miss bool) {
	if miss {
		e.finalizeQuery(q, OutcomeDMF)
	}
	e.finalizeQuery(q, OutcomeSuccess) // want `q may already have a recorded outcome`
}

// The != Pending guard resolves the early return.
//
//unitlint:outcome q
func (e *Engine) deadline(q *Txn) {
	if q.Outcome != OutcomePending {
		return
	}
	e.finalizeQuery(q, OutcomeDMF)
}

// The == Pending guard, opposite polarity: the else-path is resolved.
//
//unitlint:outcome q
func (e *Engine) retryIfPending(q *Txn) {
	if q.Outcome == OutcomePending {
		e.finalizeQuery(q, OutcomeSuccess)
	}
}

// Resetting to Pending re-arms the obligation; the second finalize is
// therefore not a double.
//
//unitlint:outcome q
func (e *Engine) rearm(q *Txn) {
	e.finalizeQuery(q, OutcomeDMF)
	q.Outcome = OutcomePending
	e.finalizeQuery(q, OutcomeSuccess)
}

// Hand-off via composite literal: the box owns the transaction now.
//
//unitlint:outcome t
func (e *Engine) stash(t *Txn) *box {
	return &box{t: t}
}

// Hand-off via closure capture: the scheduled callback owns it.
//
//unitlint:outcome q
func (e *Engine) schedule(q *Txn, at func(func())) {
	at(func() { e.finalizeQuery(q, OutcomeDMF) })
}

// Loop rebinding: each iteration's t is settled before the back edge,
// and the loop exit carries no stale state.
//
//unitlint:outcome t
func (e *Engine) drain(pending []*Txn) {
	for _, t := range pending {
		e.finalizeQuery(t, OutcomeDMF)
	}
}

// Loop hand-off is just as good.
//
//unitlint:outcome t
func (e *Engine) requeueAll(pending []*Txn) {
	for _, t := range pending {
		e.ready.Push(t)
	}
}

// A skipped iteration reaches the back edge still live.
//
//unitlint:outcome t
func (e *Engine) leakyDrain(pending []*Txn, skip func(*Txn) bool) {
	for _, t := range pending {
		if skip(t) {
			continue // want `t may finish this loop iteration with its outcome unrecorded`
		}
		e.finalizeQuery(t, OutcomeDMF)
	}
}

// A dotted key: the obligation attaches to b.t, rebound with b.
//
//unitlint:outcome b.t
func (e *Engine) drainBoxes(boxes []*box) {
	for _, b := range boxes {
		e.finalizeQuery(b.t, OutcomeDMF)
	}
}

// A transaction embedded by value: finalizing or queueing its address
// settles the dotted key.
type slot struct{ t Txn }

//unitlint:outcome s.t
func (e *Engine) settleSlots(slots []*slot, keep bool) {
	for _, s := range slots {
		if keep {
			e.ready.Push(&s.t)
			continue
		}
		e.finalizeQuery(&s.t, OutcomeDMF)
	}
}

// Finalizing without declaring ownership: the law cannot be checked, so
// the missing directive is itself a finding.
func (e *Engine) sneaky(q *Txn) {
	e.finalizeQuery(q, OutcomeDMF) // want `sneaky records a transaction outcome but has no //unitlint:outcome directive`
}

// A direct Outcome write without a directive is the same hole.
func (e *Engine) sneakyWrite(q *Txn) {
	q.Outcome = OutcomeDMF // want `sneakyWrite records a transaction outcome but has no //unitlint:outcome directive`
}

// Reading Outcome, or writing Pending, records nothing — no directive
// needed.
func (e *Engine) observer(q *Txn) bool {
	q.Outcome = OutcomePending
	return q.Outcome == OutcomePending
}
