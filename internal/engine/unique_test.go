package engine_test

import (
	"testing"

	"unitdb/internal/core/usm"
	"unitdb/internal/engine"
	"unitdb/internal/faults"
	"unitdb/internal/txn"
)

// idsByPointer wraps a policy and records, at every hook that hands it a
// transaction, which ID that pointer carried. Outcome hooks, the trace
// and stage accounting all key by *txn.Txn, so a pointer that comes back
// with another ID means the engine reused a transaction's storage within
// a run, which its allocation blocks must never do.
type idsByPointer struct {
	engine.Policy
	t    *testing.T
	seen map[*txn.Txn]int64
}

func (p *idsByPointer) note(x *txn.Txn) {
	if id, ok := p.seen[x]; ok && id != x.ID {
		p.t.Fatalf("one *txn.Txn carried ID %d and later ID %d", id, x.ID)
	}
	p.seen[x] = x.ID
}

func (p *idsByPointer) AdmitQuery(q *txn.Txn) bool {
	p.note(q)
	return p.Policy.AdmitQuery(q)
}

func (p *idsByPointer) OnQueryDone(q *txn.Txn) {
	p.note(q)
	p.Policy.OnQueryDone(q)
}

func (p *idsByPointer) OnUpdateApplied(u *txn.Txn) {
	p.note(u)
	p.Policy.OnUpdateApplied(u)
}

func TestTxnPointersUniqueWithinRun(t *testing.T) {
	w := benchTrace(t)
	for _, tc := range []struct {
		name, policy string
		disturb      bool
	}{
		{"UNIT", "UNIT", false},
		{"ODU", "ODU", false},
		{"ODU/stall+disconnect", "ODU", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &idsByPointer{Policy: benchPolicy(t, tc.policy), t: t, seen: make(map[*txn.Txn]int64)}
			cfg := engine.NewConfig(w, usm.Weights{}, 7)
			if tc.disturb {
				cfg.Disturbance = faults.NewInjector(faults.MustSchedule(
					faults.ArrivalStall(2000, 2400),
					faults.ClientDisconnect(4000, 6000, 1),
				))
			}
			e, err := engine.New(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			r, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if tc.disturb && (r.QueriesStalled == 0 || r.QueriesAbandoned == 0) {
				t.Fatalf("disturbance did not bite: %d stalled, %d abandoned", r.QueriesStalled, r.QueriesAbandoned)
			}
			// Far more transactions than one allocation block holds.
			if len(p.seen) < 1000 {
				t.Fatalf("only %d transactions observed", len(p.seen))
			}
			t.Logf("%d distinct transactions, %d stalled, %d abandoned", len(p.seen), r.QueriesStalled, r.QueriesAbandoned)
		})
	}
}
