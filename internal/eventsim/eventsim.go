// Package eventsim is a small deterministic discrete-event simulation
// kernel: a virtual clock and a time-ordered event heap with stable
// tie-breaking (schedule order), cancellation, in-place re-arming of a
// fired event, and run-until semantics.
// The web-database engine is built on top of it.
package eventsim

import (
	"fmt"
	"math"
)

// Event is a scheduled callback. It can be cancelled until it fires.
type Event struct {
	time      float64
	seq       int64
	fn        func()
	index     int
	cancelled bool
}

// Time returns the scheduled firing time.
func (e *Event) Time() float64 { return e.time }

// Cancelled reports whether the event was cancelled.
func (e *Event) Cancelled() bool { return e.cancelled }

// Sim is the simulation kernel. Not safe for concurrent use.
type Sim struct {
	now    float64
	nextID int64
	events eventHeap
	fired  int64
}

// New creates a simulator with the clock at zero.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Fired returns the number of events executed so far.
func (s *Sim) Fired() int64 { return s.fired }

// Pending returns the number of scheduled, uncancelled events. Cancel
// unlinks a queued event at once, so the heap holds no cancelled event.
func (s *Sim) Pending() int { return len(s.events) }

// At schedules fn at absolute time t. Events scheduled for the current
// instant run after the currently executing event returns. Scheduling in
// the past panics — it would silently corrupt causality.
func (s *Sim) At(t float64, fn func()) *Event {
	e := &Event{fn: fn}
	s.schedule(e, t)
	return e
}

// Rearm reschedules e, which has already fired or been cancelled, at
// absolute time t with its callback unchanged. It takes the next schedule
// order exactly as At would, so a re-armed event fires where a fresh At
// at that point would; a periodic event re-arming itself allocates
// nothing. It panics when e is still queued, and on a past or non-finite
// t as At does.
func (s *Sim) Rearm(e *Event, t float64) {
	if e.index >= 0 {
		panic(fmt.Sprintf("eventsim: re-arming an event still queued for %v", e.time))
	}
	e.cancelled = false
	s.schedule(e, t)
}

func (s *Sim) schedule(e *Event, t float64) {
	if t < s.now {
		panic(fmt.Sprintf("eventsim: scheduling at %v before now %v", t, s.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("eventsim: scheduling at non-finite time %v", t))
	}
	e.time, e.seq = t, s.nextID
	s.nextID++
	s.events.push(e)
}

// After schedules fn after a delay d >= 0.
func (s *Sim) After(d float64, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("eventsim: negative delay %v", d))
	}
	return s.At(s.now+d, fn)
}

// Cancel marks e so it will not fire. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (s *Sim) Cancel(e *Event) {
	if e == nil || e.cancelled {
		return
	}
	e.cancelled = true
	if e.index >= 0 { // still queued: unlink now to keep the heap small
		s.events.removeAt(e.index)
	}
}

// Step executes the next event. It reports whether an event was executed.
func (s *Sim) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := s.events.pop()
	if e.time < s.now {
		panic("eventsim: time went backwards")
	}
	s.now = e.time
	s.fired++
	e.fn()
	return true
}

// Run executes events until the queue empties or the next event lies
// strictly beyond until; the clock finishes at min(until, last event time)
// or exactly until when limited. It returns the number of events executed.
func (s *Sim) Run(until float64) int64 {
	start := s.fired
	for len(s.events) > 0 && s.events[0].time <= until {
		s.Step()
	}
	if s.now < until {
		s.now = until
	}
	return s.fired - start
}

// RunAll executes every scheduled event. It returns the number executed.
func (s *Sim) RunAll() int64 {
	start := s.fired
	for s.Step() {
	}
	return s.fired - start
}

// eventHeap is a hand-rolled binary min-heap over (time, seq). It used
// to implement container/heap.Interface; the concrete sift functions
// below keep the exact same total order (seq makes the comparator
// strict, so extraction order is identical) while avoiding the
// interface-dispatch cost on every comparison and swap — the heap is
// the simulation kernel's hottest code.
type eventHeap []*Event

// eventBefore is the heap order: earlier time first, schedule order
// (seq) breaking ties.
func eventBefore(a, b *Event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e *Event) {
	e.index = len(*h)
	*h = append(*h, e)
	h.siftUp(e.index)
}

// pop removes and returns the minimum. The caller guarantees the heap
// is non-empty.
func (h *eventHeap) pop() *Event {
	s := *h
	n := len(s) - 1
	e := s[0]
	if n > 0 {
		s[0] = s[n]
		s[0].index = 0
	}
	s[n] = nil
	*h = s[:n]
	h.siftDown(0)
	e.index = -1
	return e
}

// removeAt unlinks the event at heap position i (Cancel's path).
func (h *eventHeap) removeAt(i int) {
	s := *h
	n := len(s) - 1
	e := s[i]
	if i != n {
		s[i] = s[n]
		s[i].index = i
	}
	s[n] = nil
	*h = s[:n]
	if i < n {
		h.siftDown(i)
		h.siftUp(i)
	}
	e.index = -1
}

func (h *eventHeap) siftUp(i int) {
	s := *h
	for i > 0 {
		p := (i - 1) / 2
		if !eventBefore(s[i], s[p]) {
			return
		}
		s[i], s[p] = s[p], s[i]
		s[i].index = i
		s[p].index = p
		i = p
	}
}

func (h *eventHeap) siftDown(i int) {
	s := *h
	n := len(s)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && eventBefore(s[r], s[l]) {
			m = r
		}
		if !eventBefore(s[m], s[i]) {
			return
		}
		s[i], s[m] = s[m], s[i]
		s[i].index = i
		s[m].index = m
		i = m
	}
}
