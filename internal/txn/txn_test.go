package txn

import (
	"reflect"
	"strings"
	"testing"
)

func TestNewQueryFields(t *testing.T) {
	q := NewQuery(7, 10.0, []int{1, 2}, 0.5, 3.0, 0.9)
	if q.Class != ClassQuery {
		t.Fatal("wrong class")
	}
	if q.Deadline != 13.0 {
		t.Fatalf("deadline = %v", q.Deadline)
	}
	if q.Remaining != 0.5 || q.Exec != 0.5 || q.EstExec != 0.5 {
		t.Fatal("exec fields wrong")
	}
	if q.RelDeadline != 3.0 || q.FreshReq != 0.9 {
		t.Fatal("query parameter fields wrong")
	}
	if q.Outcome != OutcomePending {
		t.Fatal("new query should be pending")
	}
}

func TestNewUpdateFields(t *testing.T) {
	u := NewUpdate(3, 5.0, 42, 0.1, 6.0)
	if u.Class != ClassUpdate {
		t.Fatal("wrong class")
	}
	if u.Item() != 42 {
		t.Fatalf("item = %d", u.Item())
	}
	if u.Deadline != 6.0 {
		t.Fatalf("deadline = %v", u.Deadline)
	}
}

// Reinitialising a used transaction in place must leave nothing of its
// previous life behind: the result equals a freshly built one.
func TestInitInPlaceMatchesNew(t *testing.T) {
	used := NewQuery(9, 1, []int{4}, 2, 3, 0.5)
	used.Restarts, used.Outcome, used.Owner, used.GatherID = 2, OutcomeDSF, "owner", 5
	used.MarkReadSampled()
	used.SetBlocked(true)

	used.InitQuery(7, 10.0, []int{1, 2}, 0.5, 3.0, 0.9)
	if want := NewQuery(7, 10.0, []int{1, 2}, 0.5, 3.0, 0.9); !reflect.DeepEqual(used, want) {
		t.Fatalf("InitQuery = %+v, want %+v", used, want)
	}
	used.InitUpdate(3, 5.0, []int{42}, 0.1, 6.0)
	if want := NewUpdate(3, 5.0, 42, 0.1, 6.0); !reflect.DeepEqual(used, want) {
		t.Fatalf("InitUpdate = %+v, want %+v", used, want)
	}
}

func TestItemPanicsOnQuery(t *testing.T) {
	q := NewQuery(1, 0, []int{1}, 1, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Item() on query did not panic")
		}
	}()
	q.Item()
}

func TestResetForRestart(t *testing.T) {
	q := NewQuery(1, 0, []int{0}, 2, 10, 0.9)
	q.Remaining = 0.3
	q.ResetForRestart()
	if q.Remaining != 2 {
		t.Fatalf("remaining = %v", q.Remaining)
	}
	if q.Restarts != 1 {
		t.Fatalf("restarts = %d", q.Restarts)
	}
}

func TestHigherPriorityClassDominates(t *testing.T) {
	u := NewUpdate(100, 0, 1, 1, 999) // very late deadline
	q := NewQuery(1, 0, []int{1}, 1, 0.1, 0.9)
	if !u.HigherPriority(q) {
		t.Fatal("update must outrank query regardless of deadline")
	}
	if q.HigherPriority(u) {
		t.Fatal("query must not outrank update")
	}
}

func TestHigherPriorityEDFWithinClass(t *testing.T) {
	a := NewQuery(1, 0, []int{1}, 1, 5, 0.9)
	b := NewQuery(2, 0, []int{1}, 1, 7, 0.9)
	if !a.HigherPriority(b) || b.HigherPriority(a) {
		t.Fatal("EDF ordering broken")
	}
}

func TestHigherPriorityTieBreakByID(t *testing.T) {
	a := NewQuery(1, 0, []int{1}, 1, 5, 0.9)
	b := NewQuery(2, 0, []int{1}, 1, 5, 0.9)
	if !a.HigherPriority(b) || b.HigherPriority(a) {
		t.Fatal("ID tie-break broken")
	}
}

func TestStrings(t *testing.T) {
	if ClassQuery.String() != "query" || ClassUpdate.String() != "update" {
		t.Fatal("class names wrong")
	}
	for o, want := range map[Outcome]string{
		OutcomePending: "pending", OutcomeSuccess: "success",
		OutcomeRejected: "rejected", OutcomeDMF: "dmf", OutcomeDSF: "dsf",
	} {
		if o.String() != want {
			t.Fatalf("%d -> %q", o, o.String())
		}
	}
	q := NewQuery(9, 0, []int{3}, 1, 5, 0.9)
	if !strings.Contains(q.String(), "query#9") {
		t.Fatalf("String() = %q", q.String())
	}
	if Class(99).String() == "" || Outcome(99).String() == "" {
		t.Fatal("unknown enums should still render")
	}
}

func TestBlockedFlag(t *testing.T) {
	q := NewQuery(1, 0, []int{0}, 1, 5, 0.9)
	if q.Blocked() {
		t.Fatal("fresh txn should not be blocked")
	}
	q.SetBlocked(true)
	if !q.Blocked() {
		t.Fatal("SetBlocked(true) lost")
	}
}
