// Package readyq implements the dual-priority ready queue of paper §3.1:
// update transactions are dispatched above user queries, and within each
// class Earliest Deadline First applies. It is the one ready queue of the
// repository: the simulator engine and the live server both dispatch from
// it.
//
// Each class is a slice kept sorted under Txn.HigherPriority, which is a
// strict total order (class, deadline, id) over keys that never change
// while a transaction is queued — so the sorted order is unique, whatever
// the push/pop/remove history. That is the invariant admission control
// relies on: EDFQueries hands it the query class in dispatch order, in
// place, and the O(N_rq) admission walk of paper §3.3 needs no snapshot,
// copy or sort per arrival.
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
	"sort"

	"unitdb/internal/txn"
)

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

// Push enqueues t. It panics if t is already queued.
func (q *Queue) Push(t *txn.Txn) {
	s := q.seqFor(t)
	i := s.search(t)
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
		return q.updates.live()[0]
	}
	if q.queries.len() > 0 {
		return q.queries.live()[0]
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
func (q *Queue) EDFQueries() []*txn.Txn { return q.queries.live() }

// UpdateBacklog returns the total remaining service demand of queued
// updates; queries dispatch only after all of it.
func (q *Queue) UpdateBacklog() float64 {
	sum := 0.0
	for _, t := range q.updates.live() {
		sum += t.Remaining
	}
	return sum
}

// ExpiredQueries returns queued queries whose firm deadline has passed.
func (q *Queue) ExpiredQueries(now float64) []*txn.Txn {
	var out []*txn.Txn
	for _, t := range q.queries.live() {
		if t.Expired(now) {
			out = append(out, t)
		}
	}
	return out
}

func (q *Queue) seqFor(t *txn.Txn) *edfSeq {
	if t.Class == txn.ClassUpdate {
		return &q.updates
	}
	return &q.queries
}

// edfSeq is one class's transactions, txns[head:] sorted under
// Txn.HigherPriority. Slots below head are popped and nil.
type edfSeq struct {
	txns []*txn.Txn
	head int
}

func (s *edfSeq) len() int { return len(s.txns) - s.head }

func (s *edfSeq) live() []*txn.Txn { return s.txns[s.head:] }

// search returns the number of live transactions that dispatch strictly
// before t — the position t occupies, or would be inserted at.
func (s *edfSeq) search(t *txn.Txn) int {
	live := s.live()
	return sort.Search(len(live), func(i int) bool { return !live[i].HigherPriority(t) })
}

// find returns t's index in live(), or -1 when t is not queued.
func (s *edfSeq) find(t *txn.Txn) int { return s.findFrom(s.search(t), t) }

// findFrom looks for t itself from its search position i on. Distinct
// transactions normally have distinct keys and the first probe decides;
// the loop covers a run of equal keys so membership stays exact.
func (s *edfSeq) findFrom(i int, t *txn.Txn) int {
	live := s.live()
	for ; i < len(live) && !t.HigherPriority(live[i]); i++ {
		if live[i] == t {
			return i
		}
	}
	return -1
}

// insert places t at index i of live(). When the backing array is full
// the popped slots below head are reclaimed before it is grown.
func (s *edfSeq) insert(i int, t *txn.Txn) {
	if s.head > 0 && len(s.txns) == cap(s.txns) {
		s.txns, s.head = slices.Delete(s.txns, 0, s.head), 0
	}
	s.txns = slices.Insert(s.txns, s.head+i, t)
}

// pop removes and returns the first live transaction.
func (s *edfSeq) pop() *txn.Txn {
	t := s.txns[s.head]
	s.txns[s.head] = nil
	s.head++
	if s.head == len(s.txns) {
		s.txns, s.head = s.txns[:0], 0
	}
	return t
}

// remove unlinks the transaction at index i of live().
func (s *edfSeq) remove(i int) {
	if i == 0 {
		s.pop()
		return
	}
	s.txns = slices.Delete(s.txns, s.head+i, s.head+i+1)
}
