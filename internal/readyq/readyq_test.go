package readyq

import (
	"container/heap"
	"sort"
	"testing"
	"testing/quick"

	"unitdb/internal/stats"
	"unitdb/internal/txn"
)

func q(id int64, deadline float64) *txn.Txn {
	return txn.NewQuery(id, 0, []int{0}, 1, deadline, 0.9)
}

func u(id int64, deadline float64) *txn.Txn {
	return txn.NewUpdate(id, 0, 0, 0.5, deadline)
}

func TestPopOrderClassThenEDF(t *testing.T) {
	rq := New()
	rq.Push(q(1, 1))   // urgent query
	rq.Push(u(2, 100)) // relaxed update
	rq.Push(u(3, 50))
	rq.Push(q(4, 2))
	wantIDs := []int64{3, 2, 1, 4} // updates first (EDF), then queries (EDF)
	for i, want := range wantIDs {
		got := rq.Pop()
		if got == nil || got.ID != want {
			t.Fatalf("pop %d = %v, want id %d", i, got, want)
		}
	}
	if rq.Pop() != nil {
		t.Fatal("empty queue should pop nil")
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	rq := New()
	rq.Push(q(1, 5))
	if rq.Peek().ID != 1 || rq.Len() != 1 {
		t.Fatal("peek misbehaved")
	}
	if rq.Peek() != rq.Pop() {
		t.Fatal("peek/pop mismatch")
	}
	if rq.Peek() != nil {
		t.Fatal("peek on empty should be nil")
	}
}

func TestPushDuplicatePanics(t *testing.T) {
	rq := New()
	tx := q(1, 5)
	rq.Push(tx)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate push did not panic")
		}
	}()
	rq.Push(tx)
}

func TestRemove(t *testing.T) {
	rq := New()
	a, b, c := q(1, 5), q(2, 6), u(3, 1)
	rq.Push(a)
	rq.Push(b)
	rq.Push(c)
	if !rq.Remove(b) {
		t.Fatal("remove returned false")
	}
	if rq.Remove(b) {
		t.Fatal("double remove returned true")
	}
	if rq.Len() != 2 || rq.Contains(b) {
		t.Fatal("queue state wrong after remove")
	}
	if rq.Pop() != c || rq.Pop() != a {
		t.Fatal("order corrupted by remove")
	}
}

func TestLenClassAndSnapshots(t *testing.T) {
	rq := New()
	rq.Push(q(1, 6))
	rq.Push(q(2, 5))
	rq.Push(u(3, 1))
	if rq.LenClass(txn.ClassQuery) != 2 || rq.LenClass(txn.ClassUpdate) != 1 {
		t.Fatal("class lengths wrong")
	}
	// The in-order view holds the query class only, earliest deadline first.
	edf := rq.EDFQueries()
	if len(edf) != 2 || edf[0].ID != 2 || edf[1].ID != 1 {
		t.Fatalf("EDFQueries = %v, want queries 2 then 1", edf)
	}
	rq.Pop() // the update
	rq.Pop() // query 2
	if edf = rq.EDFQueries(); len(edf) != 1 || edf[0].ID != 1 {
		t.Fatalf("EDFQueries after pops = %v, want query 1", edf)
	}
}

func TestUpdateBacklog(t *testing.T) {
	rq := New()
	rq.Push(u(1, 1))
	rq.Push(u(2, 2))
	rq.Push(q(3, 9))
	if got := rq.UpdateBacklog(); got != 1.0 {
		t.Fatalf("backlog = %v, want 1.0 (two updates of 0.5)", got)
	}
}

func TestExpiredQueries(t *testing.T) {
	rq := New()
	a := q(1, 5)
	b := q(2, 50)
	rq.Push(a)
	rq.Push(b)
	exp := rq.ExpiredQueries(10)
	if len(exp) != 1 || exp[0] != a {
		t.Fatalf("expired = %v", exp)
	}
	if len(rq.ExpiredQueries(1)) != 0 {
		t.Fatal("nothing expired at t=1")
	}
}

func TestHeapOrderProperty(t *testing.T) {
	// Popping everything always yields: all updates before all queries,
	// deadlines non-decreasing within each class, regardless of push or
	// remove interleavings.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		rq := New()
		var all []*txn.Txn
		var id int64
		for op := 0; op < 120; op++ {
			if rng.Float64() < 0.7 || len(all) == 0 {
				id++
				var tx *txn.Txn
				if rng.Float64() < 0.5 {
					tx = q(id, rng.Float64()*100)
				} else {
					tx = u(id, rng.Float64()*100)
				}
				rq.Push(tx)
				all = append(all, tx)
			} else {
				i := rng.Intn(len(all))
				if rq.Contains(all[i]) {
					rq.Remove(all[i])
					all = append(all[:i], all[i+1:]...)
				}
			}
		}
		var popped []*txn.Txn
		for {
			tx := rq.Pop()
			if tx == nil {
				break
			}
			popped = append(popped, tx)
		}
		if len(popped) != len(all) {
			return false
		}
		if !sort.SliceIsSorted(popped, func(i, j int) bool {
			return popped[i].HigherPriority(popped[j])
		}) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refHeap is the reference model of TestOrderedQueueMatchesHeap: the
// container/heap priority queue the sorted sequences replaced, with
// membership by linear search.
type refHeap []*txn.Txn

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].HigherPriority(h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*txn.Txn)) }
func (h *refHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}

func (h refHeap) index(t *txn.Txn) int {
	for i, o := range h {
		if o == t {
			return i
		}
	}
	return -1
}

// TestOrderedQueueMatchesHeap drives the queue and a binary heap with the
// same seeded push/pop/remove stream. Deadlines come from a handful of
// values so ties are the rule, and some transactions share a whole key
// (class, deadline, id) with a queued twin. After every operation the
// in-order view must be strictly sorted under HigherPriority, Contains
// must be exact — true for members, false for removed transactions and
// for never-pushed twins — and Pop and Peek must agree with the heap.
func TestOrderedQueueMatchesHeap(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := stats.NewRNG(seed)
		rq := New()
		ref := &refHeap{}
		var gone []*txn.Txn
		var id int64
		mk := func(id int64) *txn.Txn {
			dl := float64(rng.Intn(8))
			if rng.Float64() < 0.3 {
				return u(id, dl)
			}
			return q(id, dl)
		}
		for op := 0; op < 600; op++ {
			switch r := rng.Float64(); {
			case r < 0.5 || ref.Len() == 0:
				id++
				tx := mk(id)
				rq.Push(tx)
				heap.Push(ref, tx)
			case r < 0.75:
				want := heap.Pop(ref).(*txn.Txn)
				if got := rq.Pop(); got != want {
					t.Fatalf("seed %d op %d: Pop = %v, heap popped %v", seed, op, got, want)
				}
				gone = append(gone, want)
			case r < 0.9:
				tx := (*ref)[rng.Intn(ref.Len())]
				heap.Remove(ref, ref.index(tx))
				if !rq.Remove(tx) {
					t.Fatalf("seed %d op %d: Remove(%v) = false for a member", seed, op, tx)
				}
				gone = append(gone, tx)
			default:
				// A twin shares a member's full key but was never pushed.
				m := (*ref)[rng.Intn(ref.Len())]
				twin := *m
				if rq.Contains(&twin) || rq.Remove(&twin) {
					t.Fatalf("seed %d op %d: twin of %v reported as queued", seed, op, m)
				}
			}
			if rq.Len() != ref.Len() {
				t.Fatalf("seed %d op %d: Len = %d, heap has %d", seed, op, rq.Len(), ref.Len())
			}
			if ref.Len() > 0 && rq.Peek() != (*ref)[0] {
				t.Fatalf("seed %d op %d: Peek = %v, heap root %v", seed, op, rq.Peek(), (*ref)[0])
			}
			edf := rq.EDFQueries()
			if len(edf) != rq.LenClass(txn.ClassQuery) {
				t.Fatalf("seed %d op %d: %d queries in order, LenClass %d", seed, op, len(edf), rq.LenClass(txn.ClassQuery))
			}
			for i := 1; i < len(edf); i++ {
				if !edf[i-1].HigherPriority(edf[i]) {
					t.Fatalf("seed %d op %d: EDFQueries out of order at %d: %v then %v", seed, op, i, edf[i-1], edf[i])
				}
			}
			for _, tx := range *ref {
				if !rq.Contains(tx) {
					t.Fatalf("seed %d op %d: Contains(%v) = false for a member", seed, op, tx)
				}
			}
			for _, tx := range gone {
				if rq.Contains(tx) {
					t.Fatalf("seed %d op %d: Contains(%v) = true after it left", seed, op, tx)
				}
			}
		}
		// Queue a twin beside its original: both are members, each removable
		// on its own, and the queue drains in the heap's order.
		if ref.Len() > 0 {
			m := (*ref)[rng.Intn(ref.Len())]
			twin := *m
			rq.Push(&twin)
			if !rq.Contains(m) || !rq.Contains(&twin) || !rq.Remove(&twin) || rq.Contains(&twin) || !rq.Contains(m) {
				t.Fatalf("seed %d: twin of %v not tracked by identity", seed, m)
			}
		}
		for ref.Len() > 0 {
			want := heap.Pop(ref).(*txn.Txn)
			if got := rq.Pop(); got != want {
				t.Fatalf("seed %d drain: Pop = %v, heap popped %v", seed, got, want)
			}
		}
		if rq.Pop() != nil || rq.Len() != 0 {
			t.Fatalf("seed %d: queue not empty after the heap drained", seed)
		}
	}
}
