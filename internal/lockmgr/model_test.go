package lockmgr

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"unitdb/internal/stats"
	"unitdb/internal/txn"
)

// The model test drives the Manager and a reference lock table with the
// same random traffic: transactions acquire, release, and re-acquire
// after an HP abort, over a few items so that conflicts are common. The
// reference is the map-based table the Manager replaced, kept here
// verbatim apart from names and the reuse of emptied held lists (an
// allocation detail with no visible effect). After every call both
// tables must report the same Result, HP-abort count, per-item holder
// and waiter counts, and per-transaction wait state.

// modelItems is the item space of the traffic.
const modelItems = 8

type modelWaiter struct {
	t    *txn.Txn
	mode Mode
}

type modelEntry struct {
	holders map[*txn.Txn]Mode
	waiters []modelWaiter // kept in priority order
}

// modelManager is the reference lock table.
type modelManager struct {
	entries map[int]*modelEntry
	held    map[*txn.Txn][]int
	waiting map[*txn.Txn]int
	aborts  int
}

func newModel() *modelManager {
	return &modelManager{
		entries: make(map[int]*modelEntry),
		held:    make(map[*txn.Txn][]int),
		waiting: make(map[*txn.Txn]int),
	}
}

func modelModeFor(t *txn.Txn) Mode {
	if t.Class == txn.ClassUpdate {
		return Exclusive
	}
	return Shared
}

func (m *modelManager) HPAborts() int { return m.aborts }

func (m *modelManager) Waiting(t *txn.Txn) (int, bool) {
	item, ok := m.waiting[t]
	return item, ok
}

func (m *modelManager) AcquireAll(t *txn.Txn) Result {
	if _, ok := m.waiting[t]; ok {
		panic(fmt.Sprintf("model: AcquireAll on already-waiting %v", t))
	}
	res := Result{}
	granted := m.acquireRemaining(t, &res)
	res.Granted = granted
	t.SetBlocked(!granted)
	for _, u := range res.Unblocked {
		u.SetBlocked(false)
	}
	return res
}

func (m *modelManager) acquireRemaining(t *txn.Txn, res *Result) bool {
	mode := modelModeFor(t)
	for _, item := range t.Items {
		if slices.Contains(m.held[t], item) {
			continue
		}
		e := m.entry(item)
		victims := m.conflicts(e, t, mode)
		if len(victims) == 0 {
			m.grant(t, item, mode)
			continue
		}
		higher := true
		for _, h := range victims {
			if !t.HigherPriority(h) {
				higher = false
			}
		}
		if higher {
			m.grant(t, item, mode)
			for _, v := range victims {
				m.aborts++
				res.Aborted = append(res.Aborted, v)
				m.releaseInternal(v, res)
			}
			continue
		}
		m.addWaiter(e, t, mode)
		m.waiting[t] = item
		return false
	}
	return true
}

func (m *modelManager) conflicts(e *modelEntry, t *txn.Txn, mode Mode) []*txn.Txn {
	var out []*txn.Txn
	for h, hm := range e.holders {
		if h == t {
			continue
		}
		if !(mode == Shared && hm == Shared) {
			out = append(out, h)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (m *modelManager) grant(t *txn.Txn, item int, mode Mode) {
	m.entry(item).holders[t] = mode
	m.held[t] = append(m.held[t], item)
}

func (m *modelManager) addWaiter(e *modelEntry, t *txn.Txn, mode Mode) {
	w := modelWaiter{t: t, mode: mode}
	pos := sort.Search(len(e.waiters), func(i int) bool {
		return t.HigherPriority(e.waiters[i].t)
	})
	e.waiters = append(e.waiters, modelWaiter{})
	copy(e.waiters[pos+1:], e.waiters[pos:])
	e.waiters[pos] = w
}

func (m *modelManager) ReleaseAll(t *txn.Txn) Result {
	res := Result{Granted: true}
	m.releaseInternal(t, &res)
	for _, u := range res.Unblocked {
		u.SetBlocked(false)
	}
	return res
}

func (m *modelManager) releaseInternal(t *txn.Txn, res *Result) {
	if item, ok := m.waiting[t]; ok {
		delete(m.waiting, t)
		e := m.entry(item)
		for i, w := range e.waiters {
			if w.t == t {
				e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
				break
			}
		}
	}
	items := m.held[t]
	delete(m.held, t)
	sort.Ints(items)
	for _, item := range items {
		delete(m.entry(item).holders, t)
	}
	for _, item := range items {
		m.promote(item, res)
	}
}

func (m *modelManager) promote(item int, res *Result) {
	e := m.entry(item)
	for len(e.waiters) > 0 {
		w := e.waiters[0]
		if len(m.conflicts(e, w.t, w.mode)) > 0 {
			return
		}
		e.waiters = e.waiters[1:]
		delete(m.waiting, w.t)
		m.grant(w.t, item, w.mode)
		if m.acquireRemaining(w.t, res) {
			res.Unblocked = append(res.Unblocked, w.t)
		}
	}
}

func (m *modelManager) entry(item int) *modelEntry {
	e := m.entries[item]
	if e == nil {
		e = &modelEntry{holders: make(map[*txn.Txn]Mode)}
		m.entries[item] = e
	}
	return e
}

func (m *modelManager) HolderCount(item int) int {
	if e := m.entries[item]; e != nil {
		return len(e.holders)
	}
	return 0
}

func (m *modelManager) WaiterCount(item int) int {
	if e := m.entries[item]; e != nil {
		return len(e.waiters)
	}
	return 0
}

// lockTable is what the traffic calls, on the Manager and on the model.
type lockTable interface {
	AcquireAll(t *txn.Txn) Result
	ReleaseAll(t *txn.Txn) Result
	HPAborts() int
	HolderCount(item int) int
	WaiterCount(item int) int
	Waiting(t *txn.Txn) (int, bool)
}

// twins are two transactions with the same fields, one per table: each
// table marks its own transactions blocked or not.
type twins struct{ mine, model *txn.Txn }

// tables drives the Manager and the model in lockstep.
type tables struct {
	mgr   *Manager
	model *modelManager
	txns  []twins
}

func newTables() *tables { return &tables{mgr: New(), model: newModel()} }

// add creates a twin pair: a query over items, or an update writing
// items (the workload's updates write one; the table allows more, and a
// second item reaches promotion paths one cannot).
func (tb *tables) add(update bool, deadline float64, items ...int) twins {
	id := int64(len(tb.txns) + 1)
	mk := func() *txn.Txn {
		if update {
			u := txn.NewUpdate(id, 0, items[0], 1, deadline)
			u.Items = slices.Clone(items)
			return u
		}
		return txn.NewQuery(id, 0, slices.Clone(items), 1, deadline, 0.9)
	}
	p := twins{mk(), mk()}
	tb.txns = append(tb.txns, p)
	return p
}

// do applies one call to both tables and fails t on the first
// difference between them.
func (tb *tables) do(t *testing.T, what string, p twins, acquire bool) Result {
	t.Helper()
	call := func(lt lockTable, x *txn.Txn) Result {
		if acquire {
			return lt.AcquireAll(x)
		}
		return lt.ReleaseAll(x)
	}
	got, want := call(tb.mgr, p.mine), call(tb.model, p.model)
	if g, w := describe(got), describe(want); g != w {
		t.Fatalf("%s %v: Manager %s, model %s", what, p.mine, g, w)
	}
	tb.mgr.CheckInvariants()
	if g, w := tb.mgr.HPAborts(), tb.model.HPAborts(); g != w {
		t.Fatalf("%s %v: HPAborts %d, model %d", what, p.mine, g, w)
	}
	for item := 0; item < modelItems; item++ {
		if g, w := tb.mgr.HolderCount(item), tb.model.HolderCount(item); g != w {
			t.Fatalf("%s %v: item %d has %d holders, model %d", what, p.mine, item, g, w)
		}
		if g, w := tb.mgr.WaiterCount(item), tb.model.WaiterCount(item); g != w {
			t.Fatalf("%s %v: item %d has %d waiters, model %d", what, p.mine, item, g, w)
		}
	}
	for _, q := range tb.txns {
		gi, gok := tb.mgr.Waiting(q.mine)
		wi, wok := tb.model.Waiting(q.model)
		if gi != wi || gok != wok || q.mine.Blocked() != q.model.Blocked() {
			t.Fatalf("%s %v: %v waits on (%d, %v) blocked %v, model (%d, %v) blocked %v",
				what, p.mine, q.mine, gi, gok, q.mine.Blocked(), wi, wok, q.model.Blocked())
		}
	}
	return got
}

// describe renders a Result by transaction ID, in order.
func describe(r Result) string {
	ids := func(ts []*txn.Txn) []int64 {
		out := make([]int64, len(ts))
		for i, t := range ts {
			out[i] = t.ID
		}
		return out
	}
	return fmt.Sprintf("granted=%v aborted=%v unblocked=%v", r.Granted, ids(r.Aborted), ids(r.Unblocked))
}

// checkLockTable runs ops random calls drawn from next on both tables.
func checkLockTable(t *testing.T, next func() byte, ops int) {
	tb := newTables()
	item := func() int { return int(next() % modelItems) }
	for op := 0; op < ops; op++ {
		kind, arg := next(), next()
		deadline := float64(arg % 16) // few values, so ID breaks ties
		switch kind % 4 {
		case 0: // a new query acquires one to three items
			items := []int{item()}
			for n := next() % 3; n > 0; n-- {
				if it := item(); !slices.Contains(items, it) {
					items = append(items, it)
				}
			}
			tb.do(t, "query", tb.add(false, deadline, items...), true)
		case 1: // a new update acquires its item, now and then two
			items := []int{item()}
			if it := item(); arg&0x80 != 0 && it != items[0] {
				items = append(items, it)
			}
			tb.do(t, "update", tb.add(true, deadline, items...), true)
		case 2: // release: a commit, a deadline, a withdrawal while waiting
			if len(tb.txns) > 0 {
				tb.do(t, "release", tb.txns[int(arg)%len(tb.txns)], false)
			}
		case 3: // re-acquire: an HP-abort victim restarts, a holder resumes
			if len(tb.txns) > 0 {
				p := tb.txns[int(arg)%len(tb.txns)]
				if _, waiting := tb.mgr.Waiting(p.mine); !waiting {
					tb.do(t, "reacquire", p, true)
				}
			}
		}
	}
}

func TestLockTableMatchesModel(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		rng := stats.NewRNG(seed)
		checkLockTable(t, func() byte { return byte(rng.Uint64()) }, 200)
	}
}

// FuzzLockTable drives the model test from fuzz bytes, two per call and
// more for a new transaction's items; once they run out every read is 0.
func FuzzLockTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 2, 0, 1, 5, 2, 0, 0, 4, 1, 2, 2, 1, 3, 0})
	f.Add([]byte{0, 9, 1, 2, 3, 1, 129, 1, 4, 0, 2, 3, 3, 0, 3, 2, 0, 1, 2, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		next := func() byte {
			if i >= len(data) {
				return 0
			}
			i++
			return data[i-1]
		}
		checkLockTable(t, next, min(len(data)/2, 300))
	})
}

// The nested case by name. U's HP abort of V releases item 2, whose
// waiters V blocked: W1 is promoted first and meets a conflict on its
// next item (the update H holds item 3), so it waits again inside the
// promotion; W2 is promoted next and touches item 1000, which grows the
// lock table while the promotion of item 2 is still running; W3 must
// still be promoted after that. The same calls run against the model.
func TestHPAbortPromotesWaiterIntoConflict(t *testing.T) {
	tb := newTables()
	h := tb.add(true, 1, 3)       // H holds item 3 exclusively
	v := tb.add(true, 50, 2, 1)   // V holds items 2 and 1 exclusively
	w1 := tb.add(false, 10, 2, 3) // waits on 2 behind V; item 3 next
	w2 := tb.add(false, 20, 2, 1000)
	w3 := tb.add(false, 30, 2)
	u := tb.add(true, 5, 1) // outranks V on item 1
	for _, p := range []twins{h, v, w1, w2, w3} {
		tb.do(t, "setup", p, true)
	}
	if n := tb.mgr.WaiterCount(2); n != 3 {
		t.Fatalf("%d waiters on item 2, want 3", n)
	}
	r := tb.do(t, "abort", u, true)
	if got := describe(r); got != "granted=true aborted=[2] unblocked=[4 5]" {
		t.Fatalf("U's acquire = %s, want V aborted and W2, W3 unblocked", got)
	}
	if item, ok := tb.mgr.Waiting(w1.mine); !ok || item != 3 {
		t.Fatalf("W1 waits on (%d, %v), want item 3", item, ok)
	}
	if n := tb.mgr.WaiterCount(2); n != 0 {
		t.Fatalf("%d waiters left on item 2, want none", n)
	}
	if !tb.mgr.Holds(w3.mine, 2) || !tb.mgr.Holds(w2.mine, 1000) {
		t.Fatal("W2 and W3 do not hold their items")
	}
}
