package server

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"unitdb/internal/txn"
)

// TestPanicContainment: a query whose work panics records as DMF, the
// response comes back, and the worker keeps serving — the pool never
// shrinks.
func TestPanicContainment(t *testing.T) {
	s := newTestServer(t, func(cfg *Config) {
		cfg.Workers = 1 // one worker: if the panic killed it, nothing serves
		cfg.QueryWork = func(req QueryRequest) {
			if len(req.Items) > 0 && req.Items[0] == 1 {
				panic("query work exploded")
			}
		}
	})
	resp := s.Query(QueryRequest{Items: []int{1}, Deadline: 5 * time.Second, Work: time.Millisecond})
	if resp.Outcome != OutcomeDMF {
		t.Fatalf("panicked query outcome = %s, want %s", resp.Outcome, OutcomeDMF)
	}
	// The sole worker must have survived to serve this.
	resp = s.Query(QueryRequest{Items: []int{2}, Deadline: 5 * time.Second, Work: time.Millisecond})
	if resp.Outcome != OutcomeSuccess {
		t.Fatalf("post-panic query outcome = %s, want success", resp.Outcome)
	}
	st := s.Stats()
	if st.QueriesPanicked != 1 {
		t.Fatalf("QueriesPanicked = %d, want 1", st.QueriesPanicked)
	}
	if st.Counts.DMF != 1 {
		t.Fatalf("DMF count = %d, want 1 (the panicked query)", st.Counts.DMF)
	}
}

// TestUpdatePanicContainment: a panicking refresh returns an error, is not
// applied, and ages the stored copy like a lost delivery.
func TestUpdatePanicContainment(t *testing.T) {
	s := newTestServer(t, func(cfg *Config) {
		cfg.UpdateWork = func(UpdateRequest) { panic("refresh exploded") }
	})
	applied, err := s.Update(UpdateRequest{Item: 3, Value: 1})
	if err == nil || applied {
		t.Fatalf("panicked update: applied=%v err=%v", applied, err)
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Fatalf("error %q does not mention the panic", err)
	}
	if got := s.Stats().QueriesPanicked; got != 1 {
		t.Fatalf("QueriesPanicked = %d, want 1", got)
	}
}

// TestCancellationSkipsWorker: a query whose client disconnects while
// queued resolves as canceled, never occupies a worker, and never enters
// the USM accounting.
func TestCancellationSkipsWorker(t *testing.T) {
	executed := make(chan struct{}, 16)
	release := make(chan struct{})
	s := newTestServer(t, func(cfg *Config) {
		cfg.Workers = 1
		cfg.QueryWork = func(req QueryRequest) {
			// Item 0 is the blocker sentinel; its nominal Work stays tiny
			// so admission control keeps admitting behind it.
			if len(req.Items) > 0 && req.Items[0] == 0 {
				<-release // occupy the worker until told otherwise
				return
			}
			executed <- struct{}{}
		}
	})
	// Occupy the sole worker.
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

	// Queue a query, then disconnect its client.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan QueryResponse, 1)
	go func() {
		done <- s.QueryCtx(ctx, QueryRequest{Items: []int{1}, Deadline: time.Minute, Work: time.Millisecond})
	}()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queue.Len() == 1
	})
	before := s.Stats().Counts
	cancel()
	resp := <-done
	if resp.Outcome != OutcomeCanceled {
		t.Fatalf("canceled query outcome = %s, want %s", resp.Outcome, OutcomeCanceled)
	}
	close(release)
	blocker.Wait()
	if len(executed) != 0 {
		t.Fatal("canceled query's work executed anyway")
	}
	st := s.Stats()
	if st.QueriesCanceled != 1 {
		t.Fatalf("QueriesCanceled = %d, want 1", st.QueriesCanceled)
	}
	after := st.Counts
	if after.Total() != before.Total()+1 { // only the blocker's success lands
		t.Fatalf("USM counts moved %+v -> %+v; cancellation must not be recorded", before, after)
	}
}

// TestWorkerPopSkipsCanceled: cancellation observed at pop time (the
// waiter hasn't reacted yet) still resolves as canceled without the work
// running.
func TestWorkerPopSkipsCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // dead on arrival
	s := newTestServer(t, func(cfg *Config) {
		cfg.QueryWork = func(QueryRequest) { t.Error("work ran for a canceled query") }
	})
	resp := s.QueryCtx(ctx, QueryRequest{Items: []int{1}, Deadline: time.Minute, Work: time.Millisecond})
	if resp.Outcome != OutcomeCanceled {
		t.Fatalf("outcome = %s, want %s", resp.Outcome, OutcomeCanceled)
	}
	if got := s.Stats().QueriesCanceled; got != 1 {
		t.Fatalf("QueriesCanceled = %d, want 1", got)
	}
}

// TestGracefulDrain: Close resolves queued-but-unstarted queries as
// rejections (counted as drained), lets in-flight queries finish, and
// leaks no goroutines.
func TestGracefulDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	release := make(chan struct{})
	cfg := DefaultConfig()
	cfg.NumItems = 16
	cfg.Workers = 1
	cfg.QueryWork = func(req QueryRequest) {
		// Item 0 is the blocker sentinel (small nominal Work keeps
		// admission control admitting the queries queued behind it).
		if len(req.Items) > 0 && req.Items[0] == 0 {
			<-release
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// One in-flight query holding the worker, two stuck behind it.
	results := make(chan QueryResponse, 3)
	go func() {
		results <- s.Query(QueryRequest{Items: []int{0}, Deadline: time.Minute, Work: time.Millisecond})
	}()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.running > 0
	})
	for i := 1; i <= 2; i++ {
		go func(item int) {
			results <- s.Query(QueryRequest{Items: []int{item}, Deadline: time.Minute, Work: time.Millisecond})
		}(i)
	}
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queue.Len() == 2
	})

	drained := s.Stats() // snapshot before Close wipes the queue length
	if drained.QueueLength != 2 {
		t.Fatalf("queue length = %d, want 2", drained.QueueLength)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release) // let the in-flight query finish while Close waits
	}()
	s.Close()

	got := map[Outcome]int{}
	for i := 0; i < 3; i++ {
		select {
		case r := <-results:
			got[r.Outcome]++
		case <-time.After(5 * time.Second):
			t.Fatalf("query %d never resolved: drain dropped it silently", i)
		}
	}
	if got[OutcomeSuccess] != 1 || got[OutcomeRejected] != 2 {
		t.Fatalf("outcomes = %v, want 1 success + 2 rejected", got)
	}
	st := s.Stats()
	if st.QueriesDrained != 2 {
		t.Fatalf("QueriesDrained = %d, want 2", st.QueriesDrained)
	}
	s.Close() // idempotent

	// All worker and control goroutines must be gone.
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}

// TestShedCounter: arrivals beyond MaxQueue are rejected and tallied.
func TestShedCounter(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := newTestServer(t, func(cfg *Config) {
		cfg.Workers = 1
		cfg.MaxQueue = 1
		cfg.QueryWork = func(req QueryRequest) {
			// Item 0 is the blocker sentinel; its nominal Work stays tiny
			// so admission control keeps admitting behind it.
			if len(req.Items) > 0 && req.Items[0] == 0 {
				<-release
			}
		}
	})
	go s.Query(QueryRequest{Items: []int{0}, Deadline: time.Minute, Work: time.Millisecond})
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.running > 0
	})
	go s.Query(QueryRequest{Items: []int{1}, Deadline: time.Minute, Work: time.Millisecond}) // fills MaxQueue
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queue.Len() == 1
	})
	resp := s.Query(QueryRequest{Items: []int{2}, Deadline: time.Minute, Work: time.Millisecond})
	if resp.Outcome != OutcomeRejected {
		t.Fatalf("overflow outcome = %s, want rejected", resp.Outcome)
	}
	if got := s.Stats().QueriesShed; got != 1 {
		t.Fatalf("QueriesShed = %d, want 1", got)
	}
}

// TestRetryAfterBounds: the hint is clamped to [1s, 30s].
func TestRetryAfterBounds(t *testing.T) {
	s := newTestServer(t)
	if d := s.RetryAfter(); d != time.Second {
		t.Fatalf("idle RetryAfter = %v, want 1s", d)
	}
	s.mu.Lock()
	s.backlog = 1e6
	s.mu.Unlock()
	if d := s.RetryAfter(); d != 30*time.Second {
		t.Fatalf("saturated RetryAfter = %v, want 30s", d)
	}
	s.mu.Lock()
	s.backlog = 0
	s.mu.Unlock()
}

// TestDequeueByIdentityAmongEqualDeadlines: when many queued queries share
// one deadline (so the ready queue orders them by id alone), a client
// disconnect and a firm-deadline expiry must each unlink exactly their own
// query — never a neighbour with the same deadline — and the rest must
// still run, in id order.
func TestDequeueByIdentityAmongEqualDeadlines(t *testing.T) {
	const n, cancelItem, expireItem = 12, 5, 9
	var mu sync.Mutex
	var ran []int
	release := make(chan struct{})
	s := newTestServer(t, func(cfg *Config) {
		cfg.Workers = 1
		cfg.QueryWork = func(req QueryRequest) {
			if req.Items[0] == 0 {
				<-release // the blocker holds the sole worker
				return
			}
			mu.Lock()
			ran = append(ran, req.Items[0])
			mu.Unlock()
		}
	})
	queued := func() []int {
		s.mu.Lock()
		defer s.mu.Unlock()
		var items []int
		for _, e := range s.queue.EDFQueries() {
			items = append(items, e.Txn.Owner.(*liveQuery).req.Items[0])
		}
		return items
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Query(QueryRequest{Items: []int{0}, Deadline: time.Minute, Work: time.Millisecond})
	}()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.running > 0
	})

	// Queue items 1..n one at a time, so ids follow item numbers.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resps := make([]QueryResponse, n+1)
	for item := 1; item <= n; item++ {
		req := QueryRequest{Items: []int{item}, Deadline: time.Minute, Work: time.Millisecond}
		qctx := context.Background()
		switch item {
		case cancelItem:
			qctx = ctx
		case expireItem:
			req.Deadline = 800 * time.Millisecond
		}
		wg.Add(1)
		go func(item int) {
			defer wg.Done()
			resps[item] = s.QueryCtx(qctx, req)
		}(item)
		waitFor(t, func() bool { return len(queued()) == item })
	}
	// Give every queued transaction the same deadline: re-pushed, they sit
	// in the queue as one run of equal deadlines.
	s.mu.Lock()
	shared := s.now() + 60
	var txs []*txn.Txn
	for tx := s.queue.Pop(); tx != nil; tx = s.queue.Pop() {
		tx.Deadline = shared
		txs = append(txs, tx)
	}
	for _, tx := range txs {
		s.queue.Push(tx)
	}
	s.mu.Unlock()

	without := func(items []int, drop ...int) []int {
		var out []int
		for _, it := range items {
			if !slices.Contains(drop, it) {
				out = append(out, it)
			}
		}
		return out
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i + 1
	}

	cancel()
	waitFor(t, func() bool { return len(queued()) == n-1 })
	if got, want := queued(), without(all, cancelItem); !slices.Equal(got, want) {
		t.Fatalf("after the disconnect the queue holds %v, want %v", got, want)
	}
	waitFor(t, func() bool { return len(queued()) == n-2 })
	if got, want := queued(), without(all, cancelItem, expireItem); !slices.Equal(got, want) {
		t.Fatalf("after the expiry the queue holds %v, want %v", got, want)
	}

	close(release)
	wg.Wait()
	for item := 1; item <= n; item++ {
		want := OutcomeSuccess
		switch item {
		case cancelItem:
			want = OutcomeCanceled
		case expireItem:
			want = OutcomeDMF
		}
		if resps[item].Outcome != want {
			t.Errorf("item %d outcome = %s, want %s", item, resps[item].Outcome, want)
		}
	}
	if want := without(all, cancelItem, expireItem); !slices.Equal(ran, want) {
		t.Fatalf("work ran for %v, want %v in id order", ran, want)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never held")
}
