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
	"cmp"
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

// modeFor returns the lock mode a transaction class uses.
func modeFor(t *txn.Txn) Mode {
	if t.Class == txn.ClassUpdate {
		return Exclusive
	}
	return Shared
}

// conflict reports whether holder h's lock stands in the way of t's
// request: only two shared locks are compatible.
func conflict(t, h *txn.Txn) bool {
	return h != t && (modeFor(t) == Exclusive || modeFor(h) == Exclusive)
}

// entry is one item's slot in the lock table. A transaction's class fixes
// its mode, so neither list records one.
type entry struct {
	holders []*txn.Txn
	waiters []*txn.Txn // kept in priority order
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
	entries []entry            // indexed by item, grown on first touch
	held    map[*txn.Txn][]int // items each transaction holds, in grant order
	waiting map[*txn.Txn]int   // item each blocked transaction waits on
	spare   [][]int            // emptied held lists, reused by the next holders
	stack   []*txn.Txn         // conflict lists in use, innermost on top (see conflicts)

	aborts int // cumulative HP aborts, for reporting
}

// New creates an empty lock manager.
func New() *Manager {
	return &Manager{
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
	for _, item := range t.Items {
		if m.Holds(t, item) {
			continue
		}
		base := len(m.stack)
		victims := m.conflicts(item, t)
		switch {
		case len(victims) == 0:
			m.grant(t, item)
		case higherThanAll(t, victims):
			// Grant before releasing the victims: their release promotes
			// waiters, and the promotion must see t as a holder so nothing
			// incompatible slips into the slot t just claimed.
			m.grant(t, item)
			for _, v := range victims {
				m.abortInternal(v, res)
			}
			m.pop(base)
		default:
			m.pop(base)
			m.addWaiter(m.entry(item), t)
			m.waiting[t] = item
			return false
		}
	}
	return true
}

// conflicts pushes the holders of item that conflict with t onto the
// manager's stack and returns them, sorted by ID; the caller pops them
// when it is done. Aborting the victims can promote waiters whose growing
// phases call conflicts in turn, so each call takes its own stretch of
// the stack rather than one reused list, and a list stays intact however
// deep those calls nest.
func (m *Manager) conflicts(item int, t *txn.Txn) []*txn.Txn {
	base := len(m.stack)
	for _, h := range m.entry(item).holders {
		if conflict(t, h) {
			m.stack = append(m.stack, h)
		}
	}
	out := m.stack[base:]
	if len(out) > 1 {
		slices.SortFunc(out, func(a, b *txn.Txn) int { return cmp.Compare(a.ID, b.ID) })
	}
	return out
}

// pop drops the conflict lists above base, zeroing them so the stack
// keeps no finished transaction reachable.
func (m *Manager) pop(base int) {
	clear(m.stack[base:])
	m.stack = m.stack[:base]
}

// hasConflict reports whether some holder of e conflicts with t.
func hasConflict(e *entry, t *txn.Txn) bool {
	for _, h := range e.holders {
		if conflict(t, h) {
			return true
		}
	}
	return false
}

func higherThanAll(t *txn.Txn, holders []*txn.Txn) bool {
	for _, h := range holders {
		if !t.HigherPriority(h) {
			return false
		}
	}
	return true
}

// grant records t as a holder of item.
func (m *Manager) grant(t *txn.Txn, item int) {
	e := m.entry(item)
	e.holders = append(e.holders, t)
	items := m.held[t]
	if items == nil && len(m.spare) > 0 {
		items = m.spare[len(m.spare)-1]
		m.spare = m.spare[:len(m.spare)-1]
	}
	m.held[t] = append(items, item)
}

func (m *Manager) addWaiter(e *entry, t *txn.Txn) {
	pos := sort.Search(len(e.waiters), func(i int) bool {
		return t.HigherPriority(e.waiters[i])
	})
	e.waiters = slices.Insert(e.waiters, pos, t)
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
		e := m.entry(item)
		e.waiters = deleteTxn(e.waiters, t)
	}
	items := m.held[t]
	delete(m.held, t)
	slices.Sort(items)
	for _, item := range items {
		e := m.entry(item)
		e.holders = deleteTxn(e.holders, t)
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

// deleteTxn removes t from list, keeping the order. slices.Delete zeroes
// the slot it vacates, so the list's storage keeps no departed
// transaction reachable.
func deleteTxn(list []*txn.Txn, t *txn.Txn) []*txn.Txn {
	if i := slices.Index(list, t); i >= 0 {
		return slices.Delete(list, i, i+1)
	}
	return list
}

// promote grants the item's waiters, in priority order, while their modes
// stay compatible with the current holders. A waiter whose lock is granted
// resumes its growing phase; if that completes, it is reported unblocked.
// The entry is re-read every round, because that growing phase may touch
// a new item and grow the table, which moves the entries.
func (m *Manager) promote(item int, res *Result) {
	for e := m.entry(item); len(e.waiters) > 0; e = m.entry(item) {
		w := e.waiters[0]
		if hasConflict(e, w) {
			return
		}
		e.waiters = slices.Delete(e.waiters, 0, 1)
		delete(m.waiting, w)
		m.grant(w, item)
		if m.acquireRemaining(w, res) {
			res.Unblocked = append(res.Unblocked, w)
		}
	}
}

// entry returns item's slot, growing the table on first touch. Growth
// moves the entries, so the pointer is good only until the next call.
func (m *Manager) entry(item int) *entry {
	if item >= len(m.entries) {
		m.entries = append(m.entries, make([]entry, item+1-len(m.entries))...)
	}
	return &m.entries[item]
}

// HolderCount returns how many transactions hold a lock on item (testing
// and introspection).
func (m *Manager) HolderCount(item int) int {
	if item < 0 || item >= len(m.entries) {
		return 0
	}
	return len(m.entries[item].holders)
}

// WaiterCount returns how many transactions wait on item.
func (m *Manager) WaiterCount(item int) int {
	if item < 0 || item >= len(m.entries) {
		return 0
	}
	return len(m.entries[item].waiters)
}

// CheckInvariants panics if the lock table is inconsistent: more than one
// exclusive holder, shared/exclusive mixes, a waiter that is compatible
// with all holders (missed promotion) or not registered as waiting there,
// or a transaction's held list that disagrees with the per-item holders
// (an item listed or held twice, listed but not held, or held but not
// listed). Used by tests and debug builds.
func (m *Manager) CheckInvariants() {
	for t, items := range m.held {
		for i, item := range items {
			if slices.Contains(items[:i], item) {
				panic(fmt.Sprintf("lockmgr: %v lists item %d twice", t, item))
			}
			if item >= len(m.entries) || !slices.Contains(m.entries[item].holders, t) {
				panic(fmt.Sprintf("lockmgr: %v lists item %d it does not hold", t, item))
			}
		}
	}
	for item := range m.entries {
		e := &m.entries[item]
		excl := 0
		for i, h := range e.holders {
			if slices.Contains(e.holders[:i], h) {
				panic(fmt.Sprintf("lockmgr: %v holds item %d twice", h, item))
			}
			if !slices.Contains(m.held[h], item) {
				panic(fmt.Sprintf("lockmgr: %v holds item %d but does not list it", h, item))
			}
			if modeFor(h) == Exclusive {
				excl++
			}
		}
		if excl > 1 {
			panic(fmt.Sprintf("lockmgr: %d exclusive holders on item %d", excl, item))
		}
		if excl == 1 && len(e.holders) > 1 {
			panic(fmt.Sprintf("lockmgr: exclusive+shared mix on item %d", item))
		}
		for _, w := range e.waiters {
			if at, ok := m.waiting[w]; !ok || at != item {
				panic(fmt.Sprintf("lockmgr: %v waits on item %d unregistered", w, item))
			}
		}
		if len(e.waiters) > 0 && !hasConflict(e, e.waiters[0]) {
			panic(fmt.Sprintf("lockmgr: missed promotion on item %d", item))
		}
	}
}
