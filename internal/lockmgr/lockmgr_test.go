package lockmgr

import (
	"testing"
	"testing/quick"

	"unitdb/internal/stats"
	"unitdb/internal/txn"
)

func query(id int64, deadline float64, items ...int) *txn.Txn {
	return txn.NewQuery(id, 0, items, 1, deadline, 0.9)
}

func update(id int64, deadline float64, item int) *txn.Txn {
	return txn.NewUpdate(id, 0, item, 1, deadline)
}

func TestSharedLocksCompatible(t *testing.T) {
	m := New()
	q1 := query(1, 10, 5)
	q2 := query(2, 20, 5)
	if r := m.AcquireAll(q1); !r.Granted {
		t.Fatal("first S lock refused")
	}
	if r := m.AcquireAll(q2); !r.Granted {
		t.Fatal("second S lock refused")
	}
	if m.HolderCount(5) != 2 {
		t.Fatalf("holders = %d", m.HolderCount(5))
	}
	m.CheckInvariants()
}

func TestUpdateAbortsQueryHolder(t *testing.T) {
	m := New()
	q := query(1, 1, 5) // very urgent query, but still a query
	u := update(2, 100, 5)
	m.AcquireAll(q)
	r := m.AcquireAll(u)
	if !r.Granted {
		t.Fatal("update must preempt query via HP")
	}
	if len(r.Aborted) != 1 || r.Aborted[0] != q {
		t.Fatalf("aborted = %v", r.Aborted)
	}
	if m.Holds(q, 5) {
		t.Fatal("victim still holds lock")
	}
	if m.HPAborts() != 1 {
		t.Fatalf("HPAborts = %d", m.HPAborts())
	}
	m.CheckInvariants()
}

func TestQueryWaitsForUpdateHolder(t *testing.T) {
	m := New()
	u := update(1, 5, 7)
	q := query(2, 10, 7)
	m.AcquireAll(u)
	r := m.AcquireAll(q)
	if r.Granted {
		t.Fatal("query must wait behind update's X lock")
	}
	if !q.Blocked() {
		t.Fatal("query not marked blocked")
	}
	if item, ok := m.Waiting(q); !ok || item != 7 {
		t.Fatalf("Waiting = %d,%v", item, ok)
	}
	// Releasing the update promotes the query.
	rel := m.ReleaseAll(u)
	if len(rel.Unblocked) != 1 || rel.Unblocked[0] != q {
		t.Fatalf("unblocked = %v", rel.Unblocked)
	}
	if q.Blocked() {
		t.Fatal("query still marked blocked")
	}
	if !m.Holds(q, 7) {
		t.Fatal("query did not get the lock")
	}
	m.CheckInvariants()
}

func TestEarlierUpdateAbortsLaterUpdate(t *testing.T) {
	m := New()
	late := update(1, 100, 3)
	early := update(2, 5, 3)
	m.AcquireAll(late)
	r := m.AcquireAll(early)
	if !r.Granted || len(r.Aborted) != 1 || r.Aborted[0] != late {
		t.Fatalf("EDF-HP within updates broken: %+v", r)
	}
	m.CheckInvariants()
}

func TestLaterUpdateWaitsForEarlier(t *testing.T) {
	m := New()
	early := update(1, 5, 3)
	late := update(2, 100, 3)
	m.AcquireAll(early)
	r := m.AcquireAll(late)
	if r.Granted {
		t.Fatal("later-deadline update must wait")
	}
	m.CheckInvariants()
}

func TestMultiItemGrowingPhase(t *testing.T) {
	m := New()
	u := update(1, 5, 2)
	q := query(2, 10, 1, 2, 3)
	m.AcquireAll(u)
	r := m.AcquireAll(q)
	if r.Granted {
		t.Fatal("query should block on item 2")
	}
	// Growing phase: locks on 1 must already be held.
	if !m.Holds(q, 1) {
		t.Fatal("growing-phase lock on item 1 missing")
	}
	if m.Holds(q, 3) {
		t.Fatal("lock on item 3 acquired out of order")
	}
	rel := m.ReleaseAll(u)
	if len(rel.Unblocked) != 1 {
		t.Fatalf("unblocked = %v", rel.Unblocked)
	}
	for _, item := range []int{1, 2, 3} {
		if !m.Holds(q, item) {
			t.Fatalf("query missing lock on %d after resume", item)
		}
	}
	m.CheckInvariants()
}

// A released held list goes back to the free list only after its own
// promotions: reused earlier, a promoted waiter would overwrite the items
// still being promoted. Updates lock one item in the workload, where the
// early reuse happens to be harmless, so this widens one update to two.
func TestReleasedListOutlivesItsPromotions(t *testing.T) {
	m := New()
	u := update(1, 5, 1)
	u.Items = []int{1, 2}
	q1 := query(2, 10, 1, 3) // waits on 1 holding nothing, then takes 3
	q2 := query(3, 10, 2)
	m.AcquireAll(u)
	m.AcquireAll(q1)
	m.AcquireAll(q2)
	rel := m.ReleaseAll(u)
	if len(rel.Unblocked) != 2 {
		t.Fatalf("unblocked = %v, want q1 and q2", rel.Unblocked)
	}
	for _, h := range []struct {
		q    *txn.Txn
		item int
	}{{q1, 1}, {q1, 3}, {q2, 2}} {
		if !m.Holds(h.q, h.item) {
			t.Fatalf("%v missing lock on %d", h.q, h.item)
		}
	}
	m.CheckInvariants()
}

func TestWaiterPriorityOrder(t *testing.T) {
	m := New()
	holder := update(1, 1, 9)
	qLate := query(2, 100, 9)
	qEarly := query(3, 10, 9)
	m.AcquireAll(holder)
	m.AcquireAll(qLate)
	m.AcquireAll(qEarly)
	if m.WaiterCount(9) != 2 {
		t.Fatalf("waiters = %d", m.WaiterCount(9))
	}
	rel := m.ReleaseAll(holder)
	// Both are shared and compatible, so both should be promoted; the
	// earlier-deadline query first.
	if len(rel.Unblocked) != 2 {
		t.Fatalf("unblocked = %v", rel.Unblocked)
	}
	if rel.Unblocked[0] != qEarly {
		t.Fatal("promotion order must follow priority")
	}
	m.CheckInvariants()
}

func TestExclusiveWaiterBlocksLaterShared(t *testing.T) {
	m := New()
	holder := update(1, 1, 4)
	u2 := update(2, 50, 4) // waits (later deadline)
	m.AcquireAll(holder)
	m.AcquireAll(u2)
	rel := m.ReleaseAll(holder)
	if len(rel.Unblocked) != 1 || rel.Unblocked[0] != u2 {
		t.Fatalf("unblocked = %v", rel.Unblocked)
	}
	m.CheckInvariants()
}

func TestAbortedWaiterIsForgotten(t *testing.T) {
	m := New()
	holderA := update(1, 1, 4)
	q := query(2, 100, 4, 6)
	m.AcquireAll(holderA)
	m.AcquireAll(q) // q waits on 4
	// An update on item 6? q holds nothing on 6 yet (blocked on 4 first).
	// Instead abort q via an update racing on an item q already holds: q
	// holds nothing, so abort it through release+wait bookkeeping: release
	// holderA after q leaves.
	rel := m.ReleaseAll(q) // client-side abort of a waiting txn
	if len(rel.Unblocked) != 0 {
		t.Fatalf("unexpected unblocks: %v", rel.Unblocked)
	}
	if m.WaiterCount(4) != 0 {
		t.Fatal("waiter not removed")
	}
	m.ReleaseAll(holderA)
	m.CheckInvariants()
}

func TestHPAbortOfLockWaiter(t *testing.T) {
	m := New()
	uHold := update(1, 1, 4)
	q := query(2, 100, 5, 4) // grabs 5, then waits on 4
	uOn5 := update(3, 50, 5)
	m.AcquireAll(uHold)
	if r := m.AcquireAll(q); r.Granted {
		t.Fatal("q should wait on 4")
	}
	r := m.AcquireAll(uOn5) // conflicts with q's S lock on 5 -> HP abort q
	if !r.Granted || len(r.Aborted) != 1 || r.Aborted[0] != q {
		t.Fatalf("HP abort of blocked txn failed: %+v", r)
	}
	if m.WaiterCount(4) != 0 {
		t.Fatal("aborted txn still waiting on 4")
	}
	m.CheckInvariants()
}

func TestReleaseAllIdempotentForStranger(t *testing.T) {
	m := New()
	q := query(1, 10, 2)
	r := m.ReleaseAll(q) // never acquired anything
	if len(r.Aborted) != 0 || len(r.Unblocked) != 0 {
		t.Fatalf("unexpected side effects: %+v", r)
	}
}

func TestRandomizedSafetyProperty(t *testing.T) {
	// Under random acquire/release traffic the lock table must always
	// satisfy: at most one exclusive holder per item, no S/X mixes, no
	// missed promotions, and every granted transaction's locks are
	// consistent between the per-txn and per-item views.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		m := New()
		live := map[*txn.Txn]bool{}
		var nextID int64
		for op := 0; op < 300; op++ {
			if rng.Float64() < 0.6 || len(live) == 0 {
				nextID++
				var tx *txn.Txn
				if rng.Float64() < 0.5 {
					n := 1 + rng.Intn(3)
					items := make([]int, 0, n)
					seen := map[int]bool{}
					for len(items) < n {
						it := rng.Intn(6)
						if !seen[it] {
							seen[it] = true
							items = append(items, it)
						}
					}
					tx = txn.NewQuery(nextID, 0, items, 1, rng.Float64()*100, 0.9)
				} else {
					tx = txn.NewUpdate(nextID, 0, rng.Intn(6), 1, rng.Float64()*100)
				}
				res := m.AcquireAll(tx)
				live[tx] = true
				for _, v := range res.Aborted {
					delete(live, v)
				}
			} else {
				var victim *txn.Txn
				k := rng.Intn(len(live))
				for tx := range live {
					if k == 0 {
						victim = tx
						break
					}
					k--
				}
				m.ReleaseAll(victim)
				delete(live, victim)
			}
			m.CheckInvariants()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
