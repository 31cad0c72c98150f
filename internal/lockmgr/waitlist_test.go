package lockmgr

import "testing"

// A drained wait list keeps its storage, and no slot of that storage
// still points at a transaction: a stale pointer there would keep the
// departed transaction, and the whole block it was allocated in,
// reachable for as long as the item's entry lives. It drains by both
// routes, a waiter withdrawn from the middle and the rest promoted.
func TestDrainedWaitListHoldsNoStalePointers(t *testing.T) {
	m := New()
	holder := update(1, 1, 9)
	m.AcquireAll(holder)
	waiters := []int64{2, 3, 4}
	for _, id := range waiters {
		if r := m.AcquireAll(query(id, 10*float64(id), 9)); r.Granted {
			t.Fatalf("query %d granted past an exclusive holder", id)
		}
	}
	capacity := cap(m.entries[9].waiters)
	m.ReleaseAll(m.entries[9].waiters[1]) // withdraw the middle waiter
	if r := m.ReleaseAll(holder); len(r.Unblocked) != 2 {
		t.Fatalf("unblocked = %v, want the two remaining waiters", r.Unblocked)
	}
	w := m.entries[9].waiters
	if len(w) != 0 {
		t.Fatalf("%d waiters left, want none", len(w))
	}
	if cap(w) != capacity {
		t.Fatalf("wait list capacity %d, want its original %d", cap(w), capacity)
	}
	for i, slot := range w[:cap(w)] {
		if slot != nil {
			t.Fatalf("vacated slot %d still holds %v", i, slot)
		}
	}
	m.CheckInvariants()
}
