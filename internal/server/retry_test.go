package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// recordSleeps replaces the retry policy's sleeper with a recorder so
// tests assert backoff behavior without waiting it out.
func recordSleeps(c *Client) *[]time.Duration {
	var (
		mu    sync.Mutex
		slept []time.Duration
		orig  = c.retry
	)
	orig.sleep = func(d time.Duration) {
		mu.Lock()
		slept = append(slept, d)
		mu.Unlock()
	}
	return &slept
}

// TestClientRetries429ThenSucceeds: two rejections then a success costs
// exactly three attempts, pausing per the server's Retry-After hint.
func TestClientRetries429ThenSucceeds(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts++
		n := attempts
		mu.Unlock()
		if n <= 2 {
			w.Header().Set("Retry-After", "7")
			writeJSON(w, http.StatusTooManyRequests, QueryResponse{Outcome: OutcomeRejected})
			return
		}
		writeJSON(w, http.StatusOK, QueryResponse{Outcome: OutcomeSuccess, Freshness: 1})
	}))
	defer ts.Close()

	c := NewClient(ts.URL, nil, WithRetry(3, time.Millisecond, 42))
	slept := recordSleeps(c)
	resp, err := c.Query(QueryRequest{Items: []int{1}})
	if err != nil || resp.Outcome != OutcomeSuccess {
		t.Fatalf("query: %v outcome=%s", err, resp.Outcome)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	if len(*slept) != 2 {
		t.Fatalf("backoff pauses = %d, want 2", len(*slept))
	}
	for i, d := range *slept {
		if d != 7*time.Second { // server hint overrides the jittered draw
			t.Fatalf("pause %d = %v, want 7s from Retry-After", i, d)
		}
	}
}

// TestClientRetriesExhausted: a server that always rejects burns every
// attempt and hands back the final rejection (no error — the outcome is
// the answer).
func TestClientRetriesExhausted(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts++
		mu.Unlock()
		writeJSON(w, http.StatusTooManyRequests, QueryResponse{Outcome: OutcomeRejected})
	}))
	defer ts.Close()

	c := NewClient(ts.URL, nil, WithRetry(2, time.Millisecond, 1))
	recordSleeps(c)
	resp, err := c.Query(QueryRequest{Items: []int{1}})
	if err != nil || resp.Outcome != OutcomeRejected {
		t.Fatalf("query: %v outcome=%s", err, resp.Outcome)
	}
	if attempts != 3 { // 1 try + 2 retries
		t.Fatalf("attempts = %d, want 3", attempts)
	}
}

// TestClientRetriesNetworkError: a connection killed mid-request is
// retried; the second attempt lands.
func TestClientRetriesNetworkError(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts++
		n := attempts
		mu.Unlock()
		if n == 1 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("recorder cannot hijack")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatal(err)
			}
			conn.Close() // slam the door: client sees a network error
			return
		}
		writeJSON(w, http.StatusOK, QueryResponse{Outcome: OutcomeSuccess, Freshness: 1})
	}))
	defer ts.Close()

	c := NewClient(ts.URL, nil, WithRetry(2, time.Millisecond, 9))
	recordSleeps(c)
	resp, err := c.Query(QueryRequest{Items: []int{1}})
	if err != nil || resp.Outcome != OutcomeSuccess {
		t.Fatalf("query: %v outcome=%s", err, resp.Outcome)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
}

// TestClientNeverRetriesUpdate: updates are non-idempotent writes; even
// with retries configured a failing update is attempted exactly once.
func TestClientNeverRetriesUpdate(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts++
		mu.Unlock()
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := NewClient(ts.URL, nil, WithRetry(5, time.Millisecond, 3))
	recordSleeps(c)
	if _, err := c.Update(UpdateRequest{Item: 1, Value: 2}); err == nil {
		t.Fatal("update against failing server returned no error")
	}
	if attempts != 1 {
		t.Fatalf("attempts = %d, want exactly 1 (updates must not retry)", attempts)
	}
}

// TestClientRetryBackoffDeterministic: the jittered backoff sequence is a
// pure function of the seed.
func TestClientRetryBackoffDeterministic(t *testing.T) {
	draw := func(seed uint64) []time.Duration {
		c := NewClient("http://unused", nil, WithRetry(4, 50*time.Millisecond, seed))
		var out []time.Duration
		for i := 0; i < 4; i++ {
			out = append(out, c.retry.delay(i, 0))
		}
		return out
	}
	a, b := draw(11), draw(11)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= 50*time.Millisecond<<i {
			t.Fatalf("delay %d = %v outside [0, %v)", i, a[i], 50*time.Millisecond<<i)
		}
	}
	if c := draw(12); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Fatal("different seeds produced the same backoff sequence")
	}
}

// TestClientRetryHintCapped: an absurd Retry-After is clamped to the cap.
func TestClientRetryHintCapped(t *testing.T) {
	c := NewClient("http://unused", nil, WithRetry(1, time.Millisecond, 1))
	if d := c.retry.delay(0, time.Hour); d != 30*time.Second {
		t.Fatalf("delay with 1h hint = %v, want the 30s cap", d)
	}
}

// TestClientRetryCapOption: WithRetryCap lowers both the honored hint and
// the drawn backoff ceiling, regardless of option order.
func TestClientRetryCapOption(t *testing.T) {
	for _, opts := range [][]ClientOption{
		{WithRetry(3, 40*time.Millisecond, 1), WithRetryCap(50 * time.Millisecond)},
		{WithRetryCap(50 * time.Millisecond), WithRetry(3, 40*time.Millisecond, 1)},
	} {
		c := NewClient("http://unused", nil, opts...)
		if d := c.retry.delay(0, time.Hour); d != 50*time.Millisecond {
			t.Fatalf("delay with 1h hint = %v, want the 50ms cap", d)
		}
		// Attempt 3's nominal ceiling 40ms<<3 = 320ms must clamp to the cap.
		for i := 0; i < 20; i++ {
			if d := c.retry.delay(3, 0); d >= 50*time.Millisecond {
				t.Fatalf("drawn backoff %v at or above the 50ms cap", d)
			}
		}
	}
	// Without WithRetry the cap option is inert.
	c := NewClient("http://unused", nil, WithRetryCap(time.Millisecond))
	if c.retry != nil {
		t.Fatal("cap option alone created a retry policy")
	}
}

// TestClientRetryCounts: the per-client tallies expose attempts, retries
// and giveups so a retry storm's amplification factor is assertable.
func TestClientRetryCounts(t *testing.T) {
	var mu sync.Mutex
	rejections := 2
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		reject := rejections > 0
		if reject {
			rejections--
		}
		mu.Unlock()
		if reject {
			writeJSON(w, http.StatusTooManyRequests, QueryResponse{Outcome: OutcomeRejected})
			return
		}
		writeJSON(w, http.StatusOK, QueryResponse{Outcome: OutcomeSuccess, Freshness: 1})
	}))
	defer ts.Close()

	c := NewClient(ts.URL, nil, WithRetry(5, time.Millisecond, 4))
	recordSleeps(c)
	if _, err := c.Query(QueryRequest{Items: []int{1}}); err != nil {
		t.Fatal(err)
	}
	got := c.RetryCounts()
	want := RetryCounts{Attempts: 3, Retries: 2, Giveups: 0}
	if got != want {
		t.Fatalf("counts = %+v, want %+v", got, want)
	}

	// Exhaust every retry: one more logical query, max+1 attempts, 1 giveup.
	mu.Lock()
	rejections = 1 << 30
	mu.Unlock()
	if _, err := c.Query(QueryRequest{Items: []int{1}}); err != nil {
		t.Fatal(err)
	}
	got = c.RetryCounts()
	want = RetryCounts{Attempts: 3 + 6, Retries: 2 + 5, Giveups: 1}
	if got != want {
		t.Fatalf("counts after exhaustion = %+v, want %+v", got, want)
	}
}

// TestClientDecodesRetryAfterHeader: queryOnce surfaces the server hint.
func TestClientDecodesRetryAfterHeader(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(QueryResponse{Outcome: OutcomeRejected})
	}))
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	_, hint, err := c.queryOnce(QueryRequest{Items: []int{1}})
	if err != nil || hint != 3*time.Second {
		t.Fatalf("hint = %v err = %v, want 3s", hint, err)
	}
}

// TestClientConcurrentBackoff: one Client with WithRetry is shared by
// many goroutines. Their backoff draws come from the policy's one seeded
// RNG, which its mutex serializes: under -race a draw outside the lock is
// a DATA RACE, and a lock left held deadlocks the second retry, which
// fails the test after 10 s instead of hanging.
func TestClientConcurrentBackoff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusTooManyRequests, QueryResponse{Outcome: OutcomeRejected})
	}))
	defer ts.Close()

	const callers, retries, base = 8, 3, time.Millisecond
	c := NewClient(ts.URL, nil, WithRetry(retries, base, 5))
	slept := recordSleeps(c)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Query(QueryRequest{Items: []int{1}})
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent queries did not return within 10s: the backoff left its lock held")
	}
	if len(*slept) != callers*retries {
		t.Fatalf("backoff pauses = %d, want %d", len(*slept), callers*retries)
	}
	for i, d := range *slept {
		if d < 0 || d >= base<<(retries-1) {
			t.Fatalf("pause %d = %v, want a jittered draw in [0, %v)", i, d, base<<(retries-1))
		}
	}
}
