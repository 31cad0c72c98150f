package engine_test

import (
	"testing"

	"unitdb/internal/core"
	"unitdb/internal/core/usm"
	"unitdb/internal/engine"
	"unitdb/internal/txn"
)

// inlineCheck wraps a policy and, at every AdmitQuery, compares each
// queued query's inline ready-queue entry with its transaction.
type inlineCheck struct {
	engine.Policy
	t *testing.T
	e *engine.Engine

	entries   int // queued entries compared
	partial   int // of which had part of their work done
	restarted int // of which had been restarted
}

func (p *inlineCheck) Attach(e *engine.Engine) {
	p.e = e
	p.Policy.Attach(e)
}

func (p *inlineCheck) AdmitQuery(q *txn.Txn) bool {
	for _, e := range p.e.QueuedQueries() {
		if e.Deadline != e.Txn.Deadline || e.ID != e.Txn.ID || e.Remaining != e.Txn.Remaining {
			p.t.Fatalf("t=%v admitting %d: entry (dl=%v id=%d rem=%v) differs from its %v",
				p.e.Now(), q.ID, e.Deadline, e.ID, e.Remaining, e.Txn)
		}
		p.entries++
		if e.Remaining < e.Txn.Exec {
			p.partial++
		}
		if e.Txn.Restarts > 0 {
			p.restarted++
		}
	}
	return p.Policy.AdmitQuery(q)
}

// TestQueuedEntriesMatchTxns pins the invariant admission's inline keys
// rest on: the engine changes a transaction's Remaining only while it is
// out of the ready queue (charging the running one, resetting a restart),
// so every queued entry's copy of Deadline, ID and Remaining equals its
// Txn whenever UNIT decides. The run must preempt and restart queries,
// and the queue must hold partly-run and restarted queries, or the check
// proves nothing.
func TestQueuedEntriesMatchTxns(t *testing.T) {
	weights := usm.Weights{Cr: 0.25, Cfm: 0.75, Cfs: 0.25}
	pcfg := core.DefaultConfig(weights)
	pcfg.Seed = 7
	p := &inlineCheck{Policy: core.New(pcfg), t: t}
	e, err := engine.New(engine.Config{Workload: detWorkload(t), Weights: weights, Seed: 11, PhaseUpdates: true}, p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Preemptions == 0 || r.Restarts == 0 || r.HPAborts == 0 {
		t.Fatalf("run had %d preemptions, %d restarts, %d 2PL-HP aborts: it no longer exercises both paths",
			r.Preemptions, r.Restarts, r.HPAborts)
	}
	if p.partial == 0 || p.restarted == 0 {
		t.Fatalf("of %d queued entries compared, %d were partly run and %d restarted: need both",
			p.entries, p.partial, p.restarted)
	}
	t.Logf("%d entries compared: %d partly run, %d restarted", p.entries, p.partial, p.restarted)
}
