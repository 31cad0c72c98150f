// Package lockmgr implements Two-Phase Locking with High Priority conflict
// resolution (2PL-HP, Abbott & Garcia-Molina), the concurrency control the
// paper adopts (§3.1). Queries take shared locks on their read sets;
// updates take an exclusive lock on their single item. On conflict, a
// requester with higher priority than every conflicting holder aborts the
// holders and proceeds; otherwise it waits in priority order.
//
// With this workload shape (queries: multiple S locks; updates: one X
// lock) no wait-for cycle can form — shared locks never conflict with each
// other and an update never waits while holding another lock — so the
// manager needs no deadlock detection. A safety test asserts this.
package lockmgr

import (
	"fmt"
	"slices"
	"sort"

	"unitdb/internal/txn"
)

// Mode is a lock mode.
type Mode int

const (
	// Shared is a read lock; shared locks are mutually compatible.
	Shared Mode = iota
	// Exclusive is a write lock; it conflicts with everything.
	Exclusive
)

// String returns the mode name.
func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

func compatible(a, b Mode) bool { return a == Shared && b == Shared }

// modeFor returns the lock mode a transaction class uses.
func modeFor(t *txn.Txn) Mode {
	if t.Class == txn.ClassUpdate {
		return Exclusive
	}
	return Shared
}

type waiter struct {
	t    *txn.Txn
	mode Mode
}

type entry struct {
	holders map[*txn.Txn]Mode
	waiters []waiter // kept in priority order
}

// Result reports the side effects of a lock operation: transactions the
// high-priority rule aborted (the caller must restart or kill them) and
// transactions whose lock waits completed (the caller must make them
// runnable again).
type Result struct {
	Granted   bool
	Aborted   []*txn.Txn
	Unblocked []*txn.Txn
}

// Manager is the lock table. It is not safe for concurrent use.
type Manager struct {
	entries map[int]*entry
	held    map[*txn.Txn][]int // items each transaction holds, in grant order
	waiting map[*txn.Txn]int   // item each blocked transaction waits on
	spare   [][]int            // emptied held lists, reused by the next holders

	aborts int // cumulative HP aborts, for reporting
}

// New creates an empty lock manager.
func New() *Manager {
	return &Manager{
		entries: make(map[int]*entry),
		held:    make(map[*txn.Txn][]int),
		waiting: make(map[*txn.Txn]int),
	}
}

// HPAborts returns the cumulative count of high-priority aborts.
func (m *Manager) HPAborts() int { return m.aborts }

// Holds reports whether t currently holds a lock on item.
func (m *Manager) Holds(t *txn.Txn, item int) bool {
	return slices.Contains(m.held[t], item)
}

// Waiting reports whether t is blocked on some item, and which.
func (m *Manager) Waiting(t *txn.Txn) (int, bool) {
	item, ok := m.waiting[t]
	return item, ok
}

// AcquireAll attempts to lock every item in t's lock set (shared for
// queries, exclusive for updates), applying the 2PL-HP rule on conflicts.
// If a conflict forces a wait, t keeps the locks granted so far (growing
// phase), is registered as a waiter, and Granted is false. Aborted lists
// victims of the HP rule; Unblocked lists transactions whose own waits
// completed as a cascade of those aborts.
func (m *Manager) AcquireAll(t *txn.Txn) Result {
	if _, ok := m.waiting[t]; ok {
		panic(fmt.Sprintf("lockmgr: AcquireAll on already-waiting %v", t))
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

// acquireRemaining continues t's growing phase; returns true when the full
// lock set is held.
func (m *Manager) acquireRemaining(t *txn.Txn, res *Result) bool {
	mode := modeFor(t)
	for _, item := range t.Items {
		if m.Holds(t, item) {
			continue
		}
		e := m.entry(item)
		victims := m.conflicts(e, t, mode)
		if len(victims) == 0 {
			m.grant(t, item, mode)
			continue
		}
		if higherThanAll(t, victims) {
			// Grant before releasing the victims: their release promotes
			// waiters, and the promotion must see t as a holder so nothing
			// incompatible slips into the slot t just claimed.
			m.grant(t, item, mode)
			for _, v := range victims {
				m.abortInternal(v, res)
			}
			continue
		}
		m.addWaiter(e, t, mode)
		m.waiting[t] = item
		return false
	}
	return true
}

// conflicts returns the holders of item whose mode is incompatible with the
// requested one.
func (m *Manager) conflicts(e *entry, t *txn.Txn, mode Mode) []*txn.Txn {
	var out []*txn.Txn
	for h, hm := range e.holders {
		if h == t {
			continue
		}
		if !compatible(mode, hm) {
			out = append(out, h)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func higherThanAll(t *txn.Txn, holders []*txn.Txn) bool {
	for _, h := range holders {
		if !t.HigherPriority(h) {
			return false
		}
	}
	return true
}

// grant records t as a holder of item. The held list needs no mode: a
// transaction's class fixes it (queries S, updates X).
func (m *Manager) grant(t *txn.Txn, item int, mode Mode) {
	m.entry(item).holders[t] = mode
	items := m.held[t]
	if items == nil && len(m.spare) > 0 {
		items = m.spare[len(m.spare)-1]
		m.spare = m.spare[:len(m.spare)-1]
	}
	m.held[t] = append(items, item)
}

func (m *Manager) addWaiter(e *entry, t *txn.Txn, mode Mode) {
	w := waiter{t: t, mode: mode}
	pos := sort.Search(len(e.waiters), func(i int) bool {
		return t.HigherPriority(e.waiters[i].t)
	})
	e.waiters = append(e.waiters, waiter{})
	copy(e.waiters[pos+1:], e.waiters[pos:])
	e.waiters[pos] = w
}

// abortInternal force-releases everything v holds or waits for, counts the
// HP abort, and records v in res.Aborted. Lock releases may unblock other
// waiters, which are resumed immediately.
func (m *Manager) abortInternal(v *txn.Txn, res *Result) {
	m.aborts++
	res.Aborted = append(res.Aborted, v)
	m.releaseInternal(v, res)
}

// ReleaseAll drops every lock t holds (and any wait registration), then
// promotes waiters. It returns the HP side effects of the promotions.
func (m *Manager) ReleaseAll(t *txn.Txn) Result {
	res := Result{Granted: true}
	m.releaseInternal(t, &res)
	for _, u := range res.Unblocked {
		u.SetBlocked(false)
	}
	return res
}

func (m *Manager) releaseInternal(t *txn.Txn, res *Result) {
	if item, ok := m.waiting[t]; ok {
		delete(m.waiting, t)
		m.removeWaiter(m.entry(item), t)
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
	if items != nil {
		// Promotions may release other transactions' lists in turn; this
		// one is reused only once its own promotions are done.
		m.spare = append(m.spare, items[:0])
	}
}

func (m *Manager) removeWaiter(e *entry, t *txn.Txn) {
	for i, w := range e.waiters {
		if w.t == t {
			e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
			return
		}
	}
}

// promote grants the item's waiters, in priority order, while their modes
// stay compatible with the current holders. A waiter whose lock is granted
// resumes its growing phase; if that completes, it is reported unblocked.
func (m *Manager) promote(item int, res *Result) {
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

func (m *Manager) entry(item int) *entry {
	e := m.entries[item]
	if e == nil {
		e = &entry{holders: make(map[*txn.Txn]Mode)}
		m.entries[item] = e
	}
	return e
}

// HolderCount returns how many transactions hold a lock on item (testing
// and introspection).
func (m *Manager) HolderCount(item int) int {
	e := m.entries[item]
	if e == nil {
		return 0
	}
	return len(e.holders)
}

// WaiterCount returns how many transactions wait on item.
func (m *Manager) WaiterCount(item int) int {
	e := m.entries[item]
	if e == nil {
		return 0
	}
	return len(e.waiters)
}

// CheckInvariants panics if the lock table is inconsistent: more than one
// exclusive holder, shared/exclusive mixes, a waiter that is compatible
// with all holders (missed promotion), or a transaction's held list that
// disagrees with the per-item holders (an item listed twice, listed but
// not held, or held but not listed). Used by tests and debug builds.
func (m *Manager) CheckInvariants() {
	for t, items := range m.held {
		for i, item := range items {
			if slices.Contains(items[:i], item) {
				panic(fmt.Sprintf("lockmgr: %v lists item %d twice", t, item))
			}
			e := m.entries[item]
			if e == nil {
				panic(fmt.Sprintf("lockmgr: %v lists item %d it does not hold", t, item))
			}
			if mode, ok := e.holders[t]; !ok || mode != modeFor(t) {
				panic(fmt.Sprintf("lockmgr: %v lists item %d it does not hold", t, item))
			}
		}
	}
	for item, e := range m.entries {
		for h := range e.holders {
			if !slices.Contains(m.held[h], item) {
				panic(fmt.Sprintf("lockmgr: %v holds item %d but does not list it", h, item))
			}
		}
		excl := 0
		for _, mode := range e.holders {
			if mode == Exclusive {
				excl++
			}
		}
		if excl > 1 {
			panic(fmt.Sprintf("lockmgr: %d exclusive holders on item %d", excl, item))
		}
		if excl == 1 && len(e.holders) > 1 {
			panic(fmt.Sprintf("lockmgr: exclusive+shared mix on item %d", item))
		}
		if len(e.waiters) > 0 {
			w := e.waiters[0]
			if len(m.conflicts(e, w.t, w.mode)) == 0 {
				panic(fmt.Sprintf("lockmgr: missed promotion on item %d", item))
			}
		}
	}
}
