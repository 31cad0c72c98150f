package server

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"unitdb/internal/core/usm"
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
	s, release := newBlockedServer(t, func(cfg *Config) {
		cfg.QueryWork = func(QueryRequest) { executed <- struct{}{} }
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
	release()
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

// canceledUnwatchable is a canceled context without a Done channel, so
// QueryCtx cannot wait on it and only the worker's pop-time Err check
// sees the cancellation.
type canceledUnwatchable struct{ context.Context }

func (canceledUnwatchable) Done() <-chan struct{} { return nil }
func (canceledUnwatchable) Err() error            { return context.Canceled }

// TestWorkerPopSkipsCanceled: cancellation observed at pop time (the
// waiter has not reacted) still resolves as canceled without the work
// running, and the worker goes on serving.
func TestWorkerPopSkipsCanceled(t *testing.T) {
	s := newTestServer(t, func(cfg *Config) {
		cfg.Workers = 1
		cfg.QueryWork = func(req QueryRequest) {
			if req.Items[0] == 1 {
				t.Error("work ran for a canceled query")
			}
		}
	})
	ctx := canceledUnwatchable{context.Background()}
	resp := s.QueryCtx(ctx, QueryRequest{Items: []int{1}, Deadline: time.Minute, Work: time.Millisecond})
	if resp.Outcome != OutcomeCanceled {
		t.Fatalf("outcome = %s, want %s", resp.Outcome, OutcomeCanceled)
	}
	if resp = s.Query(QueryRequest{Items: []int{2}, Deadline: time.Minute, Work: time.Millisecond}); resp.Outcome != OutcomeSuccess {
		t.Fatalf("next query outcome = %s, want %s", resp.Outcome, OutcomeSuccess)
	}
	st := s.Stats()
	if st.QueriesCanceled != 1 {
		t.Fatalf("QueriesCanceled = %d, want 1", st.QueriesCanceled)
	}
	if want := (usm.Counts{Success: 1}); st.Counts != want {
		t.Fatalf("counts = %+v, want %+v (the canceled query outside the USM)", st.Counts, want)
	}
}

// TestCancelWhileExecutingKeepsVerdict: a client that disconnects while
// its query executes finds it gone from the queue, drops s.mu and waits:
// the query runs to its verdict and counts in the USM.
func TestCancelWhileExecutingKeepsVerdict(t *testing.T) {
	started, gate := make(chan struct{}), make(chan struct{})
	s := newTestServer(t, func(cfg *Config) {
		cfg.Workers = 1
		cfg.QueryWork = func(QueryRequest) {
			close(started)
			<-gate
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan QueryResponse, 1)
	go func() {
		done <- s.QueryCtx(ctx, QueryRequest{Items: []int{1}, Deadline: time.Minute, Work: time.Millisecond})
	}()
	<-started
	cancel()
	time.Sleep(20 * time.Millisecond) // let the waiter take the cancellation branch first
	close(gate)
	select {
	case resp := <-done:
		if resp.Outcome != OutcomeSuccess {
			t.Fatalf("outcome = %s, want %s: an executing query keeps its verdict", resp.Outcome, OutcomeSuccess)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no verdict within 5s: the canceled waiter left s.mu held")
	}
	if st := s.Stats(); st.Counts.Success != 1 || st.QueriesCanceled != 0 {
		t.Fatalf("success %d, canceled %d; want 1 and 0", st.Counts.Success, st.QueriesCanceled)
	}
}

// TestWorkerResolvesOverdueQueryAtPop: a queued query whose deadline has
// passed when a worker pops it (the timer is armed for a later deadline)
// resolves as a deadline miss without running its work.
func TestWorkerResolvesOverdueQueryAtPop(t *testing.T) {
	s, release := newBlockedServer(t, func(cfg *Config) {
		cfg.QueryWork = func(QueryRequest) { t.Error("work ran for an overdue query") }
	})
	done := make(chan QueryResponse, 1)
	go func() {
		done <- s.Query(QueryRequest{Items: []int{1}, Deadline: time.Minute, Work: time.Millisecond})
	}()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queue.Len() == 1
	})
	// Backdate the queued deadline; the timer stays armed for the old one.
	s.mu.Lock()
	tx := s.queue.Pop()
	tx.Deadline = s.now()
	s.queue.Push(tx)
	s.mu.Unlock()
	release()
	resp := <-done
	if resp.Outcome != OutcomeDMF {
		t.Fatalf("outcome = %s, want %s", resp.Outcome, OutcomeDMF)
	}
	if resp.Stages == nil || resp.Stages.Exec != 0 {
		t.Fatalf("stages = %+v, want no execution", resp.Stages)
	}
	if st := s.Stats(); st.Counts.DMF != 1 {
		t.Fatalf("DMF count = %d, want 1", st.Counts.DMF)
	}
}

// TestUpdateDroppedOnDegradedItem: once the controller has stretched an
// item's period, a write arriving sooner than the period is dropped,
// tallied, and leaves the stored copy stale.
func TestUpdateDroppedOnDegradedItem(t *testing.T) {
	s := newTestServer(t)
	if applied, err := s.Update(UpdateRequest{Item: 3, Value: 1}); err != nil || !applied {
		t.Fatalf("first update: applied=%v err=%v", applied, err)
	}
	// Teach the server an hour-long feed period for item 3 and degrade it
	// as the controller would; it is the only item with updates, so the
	// lottery draws it.
	s.mu.Lock()
	s.interArrival[3].Observe(3600)
	mod := s.kern.Modulator()
	mod.SetIdealPeriod(3, 3600)
	hit := mod.DegradeN(1)
	s.mu.Unlock()
	if hit != 1 {
		t.Fatalf("DegradeN(1) stretched %d periods, want 1", hit)
	}
	applied, err := s.Update(UpdateRequest{Item: 3, Value: 2})
	if err != nil || applied {
		t.Fatalf("early update on a degraded item: applied=%v err=%v; want dropped", applied, err)
	}
	st := s.Stats()
	if st.UpdatesApplied != 1 || st.UpdatesDropped != 1 || st.StaleItems != 1 {
		t.Fatalf("applied %d, dropped %d, stale %d; want 1, 1, 1", st.UpdatesApplied, st.UpdatesDropped, st.StaleItems)
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
	s, _ := newBlockedServer(t, func(cfg *Config) { cfg.MaxQueue = 1 })
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
	st := s.Stats()
	if st.QueriesShed != 1 {
		t.Fatalf("QueriesShed = %d, want 1", st.QueriesShed)
	}
	// The shed arrival is a rejection in the USM like any other: the
	// blocker and the queued query are unresolved, so it is the only
	// outcome.
	if want := (usm.Counts{Rejected: 1}); st.Counts != want {
		t.Fatalf("counts = %+v, want %+v (the shed arrival as a rejection)", st.Counts, want)
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
	s, release := newBlockedServer(t, func(cfg *Config) {
		cfg.QueryWork = func(req QueryRequest) {
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

	release()
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

// TestTalliesUnderConcurrency: every tally Stats reports is written under
// s.mu. Concurrent arrivals are shed, queued queries are canceled,
// refreshes panic and early writes to a degraded item are dropped, all
// while pollers read Stats, StatsWindow and RetryAfter and apply
// updates; then Close drains the queue with the pollers still running.
// Under -race a tally, or the closed flag, touched outside the lock is a
// DATA RACE, and every tally must come out exact.
func TestTalliesUnderConcurrency(t *testing.T) {
	const n = 8
	s, release := newBlockedServer(t, func(cfg *Config) {
		cfg.MaxQueue = 2 * n
		cfg.UpdateWork = func(req UpdateRequest) {
			if req.Item == 5 {
				panic("refresh exploded")
			}
		}
	})
	// Item 3 is degraded with an hour-long learned period, as in
	// TestUpdateDroppedOnDegradedItem, so every further write to it drops.
	if _, err := s.Update(UpdateRequest{Item: 3, Value: 1}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.interArrival[3].Observe(3600)
	s.kern.Modulator().SetIdealPeriod(3, 3600)
	hit := s.kern.Modulator().DegradeN(1)
	s.mu.Unlock()
	if hit != 1 {
		t.Fatalf("DegradeN(1) stretched %d periods, want 1", hit)
	}

	stop := make(chan struct{})
	var poller sync.WaitGroup
	poll := func(read func()) {
		poller.Add(1)
		go func() {
			defer poller.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				read()
			}
		}()
	}
	poll(func() {
		s.Stats()
		s.StatsWindow(time.Minute)
		s.RetryAfter()
	})
	poll(func() { s.Update(UpdateRequest{Item: 7, Value: 1}) })

	// n queued queries whose clients all disconnect at once, then n more
	// that stay queued until Close drains them.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	queue := func(ctx context.Context, count int) {
		for i := 0; i < count; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.QueryCtx(ctx, QueryRequest{Items: []int{1}, Deadline: time.Minute, Work: time.Millisecond})
			}()
		}
	}
	queue(ctx, n)
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queue.Len() == n
	})
	cancel()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queue.Len() == 0
	})
	queue(context.Background(), 2*n)
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queue.Len() == 2*n
	})
	// With the queue full, every arrival is shed; refreshes of item 5
	// panic and writes to item 3 drop, n of each at once.
	var burst sync.WaitGroup
	for i := 0; i < n; i++ {
		burst.Add(3)
		go func() {
			defer burst.Done()
			s.Query(QueryRequest{Items: []int{2}, Deadline: time.Minute, Work: time.Millisecond})
		}()
		go func() {
			defer burst.Done()
			s.Update(UpdateRequest{Item: 5, Value: 1})
		}()
		go func() {
			defer burst.Done()
			s.Update(UpdateRequest{Item: 3, Value: 1})
		}()
	}
	burst.Wait()
	// Close drains the queue while the blocker still holds the worker.
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		s.Close()
	}()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.closed
	})
	release()
	<-closed
	wg.Wait()
	close(stop)
	poller.Wait()

	st := s.Stats()
	if st.QueriesShed != n || st.QueriesCanceled != n || st.QueriesPanicked != n || st.UpdatesDropped != n || st.QueriesDrained != 2*n {
		t.Fatalf("shed %d, canceled %d, panicked %d, dropped %d, drained %d; want %d, %d, %d, %d, %d",
			st.QueriesShed, st.QueriesCanceled, st.QueriesPanicked, st.UpdatesDropped, st.QueriesDrained, n, n, n, n, 2*n)
	}
	// The blocker's success, the shed arrivals and the drained queries
	// are the USM's outcomes; canceled queries stay outside it.
	if want := (usm.Counts{Success: 1, Rejected: 3 * n}); st.Counts != want {
		t.Fatalf("counts = %+v, want %+v", st.Counts, want)
	}
}

// TestWorkerTalliesUnderConcurrency: four workers at once skip queries
// whose clients are gone and contain panicking work, while a poller reads
// Stats. Under -race a worker tally written outside s.mu is a DATA RACE,
// and the tallies must come out exact.
func TestWorkerTalliesUnderConcurrency(t *testing.T) {
	const n = 2048
	s := newTestServer(t, func(cfg *Config) {
		cfg.Workers = 4
		cfg.QueryWork = func(req QueryRequest) {
			if req.Items[0] == 1 {
				panic("query work exploded")
			}
		}
	})
	stop := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Stats()
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			s.Query(QueryRequest{Items: []int{1}, Deadline: time.Minute})
		}()
		go func() {
			defer wg.Done()
			s.QueryCtx(canceledUnwatchable{context.Background()}, QueryRequest{Items: []int{2}, Deadline: time.Minute})
		}()
	}
	wg.Wait()
	close(stop)
	poller.Wait()
	st := s.Stats()
	if st.QueriesPanicked != n || st.QueriesCanceled != n || st.Counts.DMF != n {
		t.Fatalf("panicked %d, canceled %d, DMF %d; want %d each", st.QueriesPanicked, st.QueriesCanceled, st.Counts.DMF, n)
	}
}

// TestUpdatesRacingClose: writers that race Close see their updates apply
// until it takes effect and fail with "closed" after. Under -race the
// closed flag read outside s.mu is a DATA RACE; each round gives the
// detector another Close to catch it on.
func TestUpdatesRacingClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := newTestServer(t)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if _, err := s.Update(UpdateRequest{Item: w, Value: 1}); err != nil {
						if !strings.Contains(err.Error(), "closed") {
							t.Errorf("update failed with %v, want closed", err)
						}
						return
					}
				}
			}()
		}
		s.Close()
		wg.Wait()
	}
}
