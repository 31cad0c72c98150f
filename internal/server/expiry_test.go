package server

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// expiryMargin bounds how late past its deadline a queued query may be
// resolved: timer latency plus one pass under the server lock.
const expiryMargin = 50 * time.Millisecond

// newBlockedServer returns a one-worker server whose worker is held by a
// blocker query until release is called; release also runs at cleanup,
// before the server's Close, so a test that fails early never leaves
// Close waiting on the worker. Items other than 0 run the QueryWork that
// mutate sets, or none.
func newBlockedServer(t *testing.T, mutate ...func(*Config)) (s *Server, release func()) {
	t.Helper()
	gate := make(chan struct{})
	s = newTestServer(t, append(mutate, func(cfg *Config) {
		cfg.Workers = 1
		work := cfg.QueryWork
		cfg.QueryWork = func(req QueryRequest) {
			// Item 0 is the blocker; its nominal Work stays tiny so
			// admission keeps admitting behind it.
			if req.Items[0] == 0 {
				<-gate
			} else if work != nil {
				work(req)
			}
		}
	})...)
	var blocker sync.WaitGroup
	blocker.Add(1)
	go func() {
		defer blocker.Done()
		s.Query(QueryRequest{Items: []int{0}, Deadline: time.Minute, Work: time.Millisecond})
	}()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.running > 0
	})
	var once sync.Once
	release = func() {
		once.Do(func() { close(gate) })
		blocker.Wait()
	}
	t.Cleanup(release)
	return s, release
}

// timedQuery runs one query and reports its response and wall time.
func timedQuery(s *Server, req QueryRequest) (QueryResponse, time.Duration) {
	start := time.Now()
	resp := s.Query(req)
	return resp, time.Since(start)
}

// checkExpiredOnTime asserts a deadline miss resolved within
// [deadline, deadline+expiryMargin] of the call.
func checkExpiredOnTime(t *testing.T, resp QueryResponse, took, deadline time.Duration) {
	t.Helper()
	if resp.Outcome != OutcomeDMF {
		t.Fatalf("outcome = %s, want %s", resp.Outcome, OutcomeDMF)
	}
	if took < deadline || took > deadline+expiryMargin {
		t.Fatalf("resolved after %v, want within [%v, %v]", took, deadline, deadline+expiryMargin)
	}
	if resp.Stages == nil || resp.Stages.Exec != 0 || resp.Stages.QueueWait <= 0 {
		t.Fatalf("stages = %+v, want queue wait only", resp.Stages)
	}
}

// TestQueuedQueryExpiresOnTime: with the sole worker blocked, a queued
// query is resolved as a deadline miss by the server's deadline timer,
// on time, and leaves the queue.
func TestQueuedQueryExpiresOnTime(t *testing.T) {
	s, _ := newBlockedServer(t)
	const deadline = 100 * time.Millisecond
	resp, took := timedQuery(s, QueryRequest{Items: []int{1}, Deadline: deadline, Work: time.Millisecond})
	checkExpiredOnTime(t, resp, took, deadline)
	if st := s.Stats(); st.QueueLength != 0 || st.Counts.DMF != 1 {
		t.Fatalf("queue length %d, DMF %d; want 0 and 1", st.QueueLength, st.Counts.DMF)
	}
}

// TestEarlierArrivalRearmsTimer: the timer is armed for a queued query
// with a late deadline; an arrival with an earlier deadline becomes the
// EDF head, re-arms it, and still expires on time, while the first query
// runs once the worker frees up.
func TestEarlierArrivalRearmsTimer(t *testing.T) {
	s, release := newBlockedServer(t)
	late := make(chan QueryResponse, 1)
	go func() {
		late <- s.Query(QueryRequest{Items: []int{1}, Deadline: 10 * time.Second, Work: time.Millisecond})
	}()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queue.Len() == 1 && s.armed != nil && s.armed.tx.Items[0] == 1
	})

	const deadline = 100 * time.Millisecond
	resp, took := timedQuery(s, QueryRequest{Items: []int{2}, Deadline: deadline, Work: time.Millisecond})
	checkExpiredOnTime(t, resp, took, deadline)

	s.mu.Lock()
	armedFor := -1
	if s.armed != nil {
		armedFor = s.armed.tx.Items[0]
	}
	s.mu.Unlock()
	if armedFor != 1 {
		t.Fatalf("after the expiry the timer is armed for item %d, want the late query (item 1)", armedFor)
	}
	release()
	if r := <-late; r.Outcome != OutcomeSuccess {
		t.Fatalf("late-deadline query outcome = %s, want %s", r.Outcome, OutcomeSuccess)
	}
}

// TestCloseStopsDeadlineTimer: Close with queued queries and an armed
// deadline timer resolves them as drained rejections and leaves no
// goroutine behind, the timer's included.
func TestCloseStopsDeadlineTimer(t *testing.T) {
	before := runtime.NumGoroutine()
	s, release := newBlockedServer(t)
	results := make(chan QueryResponse, 3)
	for i := 1; i <= 3; i++ {
		go func(item int) {
			results <- s.Query(QueryRequest{Items: []int{item}, Deadline: time.Minute, Work: time.Millisecond})
		}(i)
	}
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queue.Len() == 3 && s.armed != nil
	})

	go func() {
		time.Sleep(10 * time.Millisecond)
		release() // the blocker finishes while Close waits for its worker
	}()
	s.Close()
	for i := 0; i < 3; i++ {
		if r := <-results; r.Outcome != OutcomeRejected {
			t.Fatalf("queued query outcome = %s, want a drained %s", r.Outcome, OutcomeRejected)
		}
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}
