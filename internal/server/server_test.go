package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"unitdb/internal/core/usm"
)

func newTestServer(t *testing.T, mutate ...func(*Config)) *Server {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumItems = 16
	cfg.Workers = 2
	cfg.ControlPeriod = 20 * time.Millisecond
	cfg.GracePeriod = 50 * time.Millisecond
	cfg.MinDecisionSamples = 5
	for _, m := range mutate {
		m(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestQuerySucceeds(t *testing.T) {
	s := newTestServer(t)
	resp := s.Query(QueryRequest{Items: []int{3}, Deadline: time.Second, Work: time.Millisecond})
	if resp.Outcome != OutcomeSuccess {
		t.Fatalf("outcome = %s", resp.Outcome)
	}
	if resp.Freshness != 1 {
		t.Fatalf("freshness = %v", resp.Freshness)
	}
	if _, ok := resp.Values["3"]; !ok {
		t.Fatalf("values = %v", resp.Values)
	}
	if resp.Latency <= 0 {
		t.Fatal("latency not measured")
	}
}

func TestUpdateThenQueryReadsValue(t *testing.T) {
	s := newTestServer(t)
	applied, err := s.Update(UpdateRequest{Item: 5, Value: 42.5})
	if err != nil || !applied {
		t.Fatalf("update: %v applied=%v", err, applied)
	}
	resp := s.Query(QueryRequest{Items: []int{5}, Deadline: time.Second})
	if resp.Values["5"] != 42.5 {
		t.Fatalf("read %v, want 42.5", resp.Values["5"])
	}
}

// TestUpdateRefusesNonFiniteValues: a NaN or infinite write is refused
// by both backends and leaves the stored value alone, so later queries of
// the item still encode. Before the check such a write was applied and
// every later /query of the item answered 200 with an empty body.
func TestUpdateRefusesNonFiniteValues(t *testing.T) {
	backends := map[string]backend{
		"server":  newTestServer(t),
		"sharded": newTestSharded(t, 2),
	}
	for name, b := range backends {
		if _, err := b.Update(UpdateRequest{Item: 5, Value: 42.5}); err != nil {
			t.Fatalf("%s: finite update: %v", name, err)
		}
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			applied, err := b.Update(UpdateRequest{Item: 5, Value: v})
			if err == nil || applied || !strings.Contains(err.Error(), "bad value") {
				t.Fatalf("%s: update to %v: applied=%v err=%v, want a bad value error", name, v, applied, err)
			}
		}
		resp := b.QueryCtx(context.Background(), QueryRequest{Items: []int{5}, Deadline: time.Second})
		if resp.Values["5"] != 42.5 {
			t.Fatalf("%s: read %v, want 42.5", name, resp.Values["5"])
		}
		if _, err := json.Marshal(resp); err != nil {
			t.Fatalf("%s: response no longer encodes: %v", name, err)
		}
	}
}

func TestQueryDeadlineMiss(t *testing.T) {
	s := newTestServer(t)
	// Saturate both workers with slow queries, then submit one whose
	// deadline cannot survive the queueing.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Query(QueryRequest{Items: []int{0}, Deadline: 2 * time.Second, Work: 300 * time.Millisecond})
		}()
	}
	time.Sleep(30 * time.Millisecond) // let them start executing
	resp := s.Query(QueryRequest{Items: []int{1}, Deadline: 60 * time.Millisecond, Work: 10 * time.Millisecond})
	wg.Wait()
	if resp.Outcome == OutcomeSuccess {
		t.Fatalf("query with impossible deadline succeeded")
	}
}

func TestBadItemRejected(t *testing.T) {
	s := newTestServer(t)
	resp := s.Query(QueryRequest{Items: []int{999}, Deadline: time.Second})
	if resp.Outcome != OutcomeRejected {
		t.Fatalf("out-of-range item gave %s", resp.Outcome)
	}
	if _, err := s.Update(UpdateRequest{Item: -1}); err == nil {
		t.Fatal("out-of-range update accepted")
	}
}

func TestStatsAccounting(t *testing.T) {
	s := newTestServer(t)
	for i := 0; i < 5; i++ {
		s.Query(QueryRequest{Items: []int{i}, Deadline: time.Second, Work: time.Millisecond})
	}
	st := s.Stats()
	if st.Counts.Total() != 5 {
		t.Fatalf("stats counted %d queries", st.Counts.Total())
	}
	if st.USM <= 0 {
		t.Fatalf("USM = %v", st.USM)
	}
	if st.CFlex <= 0 {
		t.Fatal("cflex not exposed")
	}
}

func TestCloseIsIdempotentAndFailsQueries(t *testing.T) {
	s := newTestServer(t)
	s.Close()
	s.Close()
	resp := s.Query(QueryRequest{Items: []int{0}, Deadline: time.Second})
	if resp.Outcome != OutcomeRejected {
		t.Fatalf("query after close gave %s", resp.Outcome)
	}
	if _, err := s.Update(UpdateRequest{Item: 0}); err == nil {
		t.Fatal("update after close accepted")
	}
}

func TestConcurrentTraffic(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Workers = 4 })
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if c%2 == 0 {
					s.Query(QueryRequest{Items: []int{i % 16}, Deadline: 200 * time.Millisecond, Work: time.Millisecond})
				} else {
					s.Update(UpdateRequest{Item: i % 16, Value: float64(i)})
				}
			}
		}(c)
	}
	wg.Wait()
	st := s.Stats()
	if st.Counts.Total() != 100 {
		t.Fatalf("query outcomes = %d, want 100", st.Counts.Total())
	}
	if st.UpdatesApplied+st.UpdatesDropped != 100 {
		t.Fatalf("update outcomes = %d, want 100", st.UpdatesApplied+st.UpdatesDropped)
	}
}

func TestDefaultFreshnessApplied(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.DefaultFreshness = 0.5 })
	// Make item 0 stale by one dropped update: freshness 0.5 passes a 0.5
	// requirement but fails the usual 0.9.
	s.mu.Lock()
	s.store.DropUpdate(0)
	s.mu.Unlock()
	resp := s.Query(QueryRequest{Items: []int{0}, Deadline: time.Second})
	if resp.Outcome != OutcomeSuccess {
		t.Fatalf("0.5 freshness against 0.5 default gave %s", resp.Outcome)
	}
	resp = s.Query(QueryRequest{Items: []int{0}, Deadline: time.Second, Freshness: 0.9})
	if resp.Outcome != OutcomeDSF {
		t.Fatalf("0.5 freshness against 0.9 requirement gave %s", resp.Outcome)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{NumItems: 0}); err == nil {
		t.Fatal("zero items accepted")
	}
	if _, err := New(Config{NumItems: 4, Weights: usm.Weights{Cr: -1}}); err == nil {
		t.Fatal("bad weights accepted")
	}
}

// --- HTTP layer ---

func TestHTTPQueryAndUpdate(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/update?item=2&value=7.5", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d", resp.StatusCode)
	}

	qr, err := http.Get(ts.URL + "/query?items=2&deadline=500ms&freshness=0.9")
	if err != nil {
		t.Fatal(err)
	}
	defer qr.Body.Close()
	if qr.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", qr.StatusCode)
	}
	var out QueryResponse
	if err := json.NewDecoder(qr.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Outcome != OutcomeSuccess || out.Values["2"] != 7.5 {
		t.Fatalf("response %+v", out)
	}
}

func TestHTTPValidation(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		method, path string
		wantStatus   int
	}{
		{"GET", "/query", http.StatusBadRequest},
		{"GET", "/query?items=abc", http.StatusBadRequest},
		{"GET", "/query?items=1&deadline=bogus", http.StatusBadRequest},
		{"GET", "/query?items=1&work=bogus", http.StatusBadRequest},
		{"GET", "/query?items=1&freshness=2", http.StatusBadRequest},
		{"GET", "/update?item=1&value=1", http.StatusMethodNotAllowed},
		{"POST", "/update?item=x&value=1", http.StatusBadRequest},
		{"POST", "/update?item=1&value=x", http.StatusBadRequest},
		{"POST", "/update?item=999&value=1", http.StatusBadRequest},
		{"GET", "/healthz", http.StatusOK},
		{"GET", "/stats", http.StatusOK},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.wantStatus)
		}
	}
}

func TestHTTPOutcomeStatusCodes(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Workers = 1 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Make item 0 stale: DSF maps to 206.
	s.mu.Lock()
	s.store.DropUpdate(0)
	s.mu.Unlock()
	resp, err := http.Get(ts.URL + "/query?items=0&deadline=500ms&freshness=0.9")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("DSF mapped to %d", resp.StatusCode)
	}
}

func TestStatsJSONShape(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"usm", "cflex", "queue_length", "updates_applied"} {
		if _, ok := m[key]; !ok {
			t.Errorf("stats missing %q", key)
		}
	}
}

func TestOverloadProducesRejections(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.MaxQueue = 8
	})
	var wg sync.WaitGroup
	var mu sync.Mutex
	got := map[Outcome]int{}
	for i := 0; i < 60; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := s.Query(QueryRequest{
				Items:    []int{i % 16},
				Deadline: 150 * time.Millisecond,
				Work:     30 * time.Millisecond,
			})
			mu.Lock()
			got[r.Outcome]++
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if got[OutcomeRejected] == 0 && got[OutcomeDMF] == 0 {
		t.Fatalf("no overload response at all: %v", got)
	}
	total := 0
	for _, v := range got {
		total += v
	}
	if total != 60 {
		t.Fatalf("outcomes = %d, want 60 (%v)", total, got)
	}
}

func TestParseItems(t *testing.T) {
	items, err := parseItems("1, 2,3")
	if err != nil || len(items) != 3 || items[2] != 3 {
		t.Fatalf("parseItems: %v %v", items, err)
	}
	for _, bad := range []string{"", "a", "1,,2"} {
		if _, err := parseItems(bad); err == nil {
			t.Errorf("parseItems(%q) accepted", bad)
		}
	}
	if _, err := parseItems(""); err == nil || !strings.Contains(err.Error(), "items") {
		t.Fatalf("error message: %v", err)
	}
}
