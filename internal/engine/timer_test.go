package engine

import (
	"math"
	"testing"

	"unitdb/internal/core/usm"
	"unitdb/internal/stats"
	"unitdb/internal/txn"
)

// presentedQueries wraps the chaos policy to keep every query it sees.
type presentedQueries struct {
	*chaosPolicy
	seen []*txn.Txn
}

func (p *presentedQueries) AdmitQuery(q *txn.Txn) bool {
	p.seen = append(p.seen, q)
	return p.chaosPolicy.AdmitQuery(q)
}

// disconnectSome disconnects about half the queries' clients, after a
// delay that is a pure function of the presentation time.
type disconnectSome struct{ stubQD }

func (disconnectSome) ScaleQueryExec(float64) float64 { return 1 }
func (disconnectSome) DisconnectAfter(t float64) float64 {
	if f := t - math.Floor(t); f < 0.5 {
		return 0.2 + 10*f
	}
	return 0
}

// TestDeadlineTimersReturnToPool runs random workloads, plain and with
// mid-flight disconnects, and checks after Run that every pooled
// deadline timer is back in the pool, disarmed, and that no query still
// holds one in Owner.
func TestDeadlineTimersReturnToPool(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    Disturbance
	}{{"plain", nil}, {"disconnect", disconnectSome{}}} {
		t.Run(tc.name, func(t *testing.T) {
			var abandoned int
			for seed := uint64(1); seed <= 60; seed++ {
				rng := stats.NewRNG(seed)
				w := randomWorkload(rng)
				cfg := NewConfig(w, usm.Weights{Cr: 0.2, Cfm: 0.8, Cfs: 0.2}, seed)
				cfg.Disturbance = tc.d
				p := &presentedQueries{chaosPolicy: &chaosPolicy{rng: rng.Split()}}
				e, err := New(cfg, p)
				if err != nil {
					t.Fatal(err)
				}
				r, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				abandoned += r.QueriesAbandoned
				checkTimerPool(t, seed, e, p.seen)
			}
			if tc.d != nil && abandoned == 0 {
				t.Fatal("no query was abandoned; the disconnect path went untested")
			}
		})
	}
}

func checkTimerPool(t *testing.T, seed uint64, e *Engine, queries []*txn.Txn) {
	t.Helper()
	if len(e.freeTimers) != e.timers {
		t.Fatalf("seed %d: %d of %d deadline timers back in the pool", seed, len(e.freeTimers), e.timers)
	}
	distinct := make(map[*deadlineTimer]bool)
	for _, dt := range e.freeTimers {
		if distinct[dt] || dt.q != nil {
			t.Fatalf("seed %d: pooled timer duplicated or still bound to query %v", seed, dt.q)
		}
		distinct[dt] = true
	}
	if n := e.sim.Pending(); n != 0 {
		t.Fatalf("seed %d: %d events pending after Run", seed, n)
	}
	for _, q := range queries {
		if q.Owner != nil {
			t.Fatalf("seed %d: query %d (%v) still holds %v", seed, q.ID, q.Outcome, q.Owner)
		}
	}
}
