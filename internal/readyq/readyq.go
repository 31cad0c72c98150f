// Package readyq implements the dual-priority ready queue of paper §3.1:
// update transactions are dispatched above user queries, and within each
// class Earliest Deadline First applies. It is the one ready queue of the
// repository: the simulator engine and the live server both dispatch from
// it.
//
// Each class is one slice of Entry values kept sorted under
// Txn.HigherPriority, which is a strict total order (class, deadline, id)
// over keys that never change while a transaction is queued — so the
// sorted order is unique, whatever the push/pop/remove history. That is the
// invariant admission control relies on: EDFQueries hands it the query
// class in dispatch order, in place, and the O(N_rq) admission walk of
// paper §3.3 needs no snapshot, copy or sort per arrival.
//
// An Entry carries its transaction's deadline, id and remaining work
// inline beside the pointer, so ordering and the admission walk read one
// contiguous array instead of dereferencing a separately allocated Txn per
// step. The inline Remaining is a copy taken at Push. It stays equal to
// the Txn's because a transaction's Remaining changes only while it is out
// of the queue: the engine charges service to the running transaction and
// resets a restart before it pushes either back, and the live server never
// changes it. The readyq model test and the engine's admission test pin
// that equality.
//
// A sorted slice is enough for the depths the queue sees (simulator: at
// most a few dozen queries; live server: bounded by MaxQueue = 4096).
// Push is a binary search plus a memmove, and a plain append for the
// common latest-deadline arrival; Pop advances a head offset in O(1);
// Contains and Remove find their target by binary search.
package readyq

import (
	"fmt"
	"slices"

	"unitdb/internal/txn"
)

// Entry is one queued transaction: its dispatch key and remaining service
// demand stored inline, and the transaction itself. Deadline, ID and
// Remaining equal Txn's fields for as long as the entry is queued.
type Entry struct {
	Deadline  float64
	ID        int64
	Remaining float64
	Txn       *txn.Txn
}

// EntryOf captures t's key and remaining work.
func EntryOf(t *txn.Txn) Entry {
	return Entry{Deadline: t.Deadline, ID: t.ID, Remaining: t.Remaining, Txn: t}
}

// before reports whether key (d1, id1) dispatches ahead of (d2, id2) within
// one class. It makes Txn.HigherPriority's comparisons, on inline keys.
func before(d1 float64, id1 int64, d2 float64, id2 int64) bool {
	if d1 != d2 {
		return d1 < d2
	}
	return id1 < id2
}

// Ahead returns how many of entries — one class in dispatch order, as
// EDFQueries returns it — dispatch strictly before t: the position t
// occupies, or would be inserted at. t must be of that class. It is a
// binary search on (Deadline, ID) that reads no Txn.
func Ahead(entries []Entry, t *txn.Txn) int {
	lo, hi := 0, len(entries)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if before(entries[m].Deadline, entries[m].ID, t.Deadline, t.ID) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// SortEntries sorts entries of one class into dispatch order.
func SortEntries(entries []Entry) {
	slices.SortFunc(entries, func(a, b Entry) int {
		if before(a.Deadline, a.ID, b.Deadline, b.ID) {
			return -1
		}
		if before(b.Deadline, b.ID, a.Deadline, a.ID) {
			return 1
		}
		return 0
	})
}

// Queue is the two-class EDF ready queue. Not safe for concurrent use.
type Queue struct {
	updates edfSeq
	queries edfSeq
}

// New creates an empty ready queue.
func New() *Queue {
	return &Queue{}
}

// Len returns the number of queued transactions.
func (q *Queue) Len() int { return q.updates.len() + q.queries.len() }

// LenClass returns the number of queued transactions of one class.
func (q *Queue) LenClass(c txn.Class) int {
	if c == txn.ClassUpdate {
		return q.updates.len()
	}
	return q.queries.len()
}

// Contains reports whether t itself (not merely an equal key) is queued.
func (q *Queue) Contains(t *txn.Txn) bool { return q.seqFor(t).find(t) >= 0 }

// Push enqueues t, capturing its key and Remaining. It panics if t is
// already queued.
func (q *Queue) Push(t *txn.Txn) {
	s := q.seqFor(t)
	i := Ahead(s.live(), t)
	if s.findFrom(i, t) >= 0 {
		panic(fmt.Sprintf("readyq: %v pushed twice", t))
	}
	s.insert(i, t)
}

// Pop removes and returns the highest-priority transaction (updates first,
// then earliest deadline). It returns nil when empty.
func (q *Queue) Pop() *txn.Txn {
	if q.updates.len() > 0 {
		return q.updates.pop()
	}
	if q.queries.len() > 0 {
		return q.queries.pop()
	}
	return nil
}

// Peek returns the highest-priority transaction without removing it, or nil
// when empty.
func (q *Queue) Peek() *txn.Txn {
	if q.updates.len() > 0 {
		return q.updates.live()[0].Txn
	}
	if q.queries.len() > 0 {
		return q.queries.live()[0].Txn
	}
	return nil
}

// Remove unlinks t from the queue; it reports whether t was queued.
func (q *Queue) Remove(t *txn.Txn) bool {
	s := q.seqFor(t)
	i := s.find(t)
	if i < 0 {
		return false
	}
	s.remove(i)
	return true
}

// EDFQueries returns the queued user queries in dispatch order (sorted
// under Txn.HigherPriority). The slice is the queue's own storage: the
// caller must not modify it, and it is valid only until the next Push,
// Pop or Remove.
func (q *Queue) EDFQueries() []Entry { return q.queries.live() }

// UpdateBacklog returns the total remaining service demand of queued
// updates; queries dispatch only after all of it.
func (q *Queue) UpdateBacklog() float64 {
	sum := 0.0
	for _, e := range q.updates.live() {
		sum += e.Remaining
	}
	return sum
}

func (q *Queue) seqFor(t *txn.Txn) *edfSeq {
	if t.Class == txn.ClassUpdate {
		return &q.updates
	}
	return &q.queries
}

// edfSeq is one class's entries, entries[head:] sorted under
// Txn.HigherPriority. Slots below head are popped and zeroed.
type edfSeq struct {
	entries []Entry
	head    int
}

func (s *edfSeq) len() int { return len(s.entries) - s.head }

func (s *edfSeq) live() []Entry { return s.entries[s.head:] }

// find returns t's index in live(), or -1 when t is not queued.
func (s *edfSeq) find(t *txn.Txn) int { return s.findFrom(Ahead(s.live(), t), t) }

// findFrom looks for t itself from its search position i on. Distinct
// transactions normally have distinct keys and the first probe decides;
// the loop covers a run of equal keys so membership stays exact.
func (s *edfSeq) findFrom(i int, t *txn.Txn) int {
	live := s.live()
	for ; i < len(live) && !before(t.Deadline, t.ID, live[i].Deadline, live[i].ID); i++ {
		if live[i].Txn == t {
			return i
		}
	}
	return -1
}

// insert places t at index i of live(). When the backing array is full
// the popped slots below head are reclaimed before it is grown.
func (s *edfSeq) insert(i int, t *txn.Txn) {
	if s.head > 0 && len(s.entries) == cap(s.entries) {
		s.entries, s.head = slices.Delete(s.entries, 0, s.head), 0
	}
	s.entries = slices.Insert(s.entries, s.head+i, EntryOf(t))
}

// pop removes and returns the first live transaction.
func (s *edfSeq) pop() *txn.Txn {
	t := s.entries[s.head].Txn
	s.entries[s.head] = Entry{}
	s.head++
	if s.head == len(s.entries) {
		s.entries, s.head = s.entries[:0], 0
	}
	return t
}

// remove unlinks the transaction at index i of live().
func (s *edfSeq) remove(i int) {
	if i == 0 {
		s.pop()
		return
	}
	s.entries = slices.Delete(s.entries, s.head+i, s.head+i+1)
}
