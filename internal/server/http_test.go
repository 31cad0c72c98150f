package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestHTTPInputContract drives every request-validation error path through
// the handler and checks the status code and, where it matters, that the
// message names the offending field.
func TestHTTPInputContract(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	tooMany := make([]string, MaxQueryItems+1)
	for i := range tooMany {
		tooMany[i] = strconv.Itoa(i % 16)
	}

	cases := []struct {
		name, method, path string
		wantStatus         int
		wantMsg            string
	}{
		{"missing items", "GET", "/query", http.StatusBadRequest, "items"},
		{"non-integer item", "GET", "/query?items=abc", http.StatusBadRequest, "integer"},
		{"empty element", "GET", "/query?items=1,,2", http.StatusBadRequest, "integer"},
		{"negative item", "GET", "/query?items=-3", http.StatusBadRequest, "negative"},
		{"duplicate item", "GET", "/query?items=4,1,4", http.StatusBadRequest, "duplicate"},
		{"too many items", "GET", "/query?items=" + strings.Join(tooMany, ","), http.StatusBadRequest, "too many"},
		{"bad deadline", "GET", "/query?items=1&deadline=bogus", http.StatusBadRequest, "deadline"},
		{"negative deadline", "GET", "/query?items=1&deadline=-5s", http.StatusBadRequest, "deadline"},
		{"bad work", "GET", "/query?items=1&work=bogus", http.StatusBadRequest, "work"},
		{"negative work", "GET", "/query?items=1&work=-1ms", http.StatusBadRequest, "work"},
		{"freshness above 1", "GET", "/query?items=1&freshness=2", http.StatusBadRequest, "freshness"},
		{"freshness zero", "GET", "/query?items=1&freshness=0", http.StatusBadRequest, "freshness"},
		{"freshness NaN", "GET", "/query?items=1&freshness=NaN", http.StatusBadRequest, "freshness"},
		{"POST to query", "POST", "/query?items=1", http.StatusMethodNotAllowed, "GET"},
		{"GET to update", "GET", "/update?item=1&value=1", http.StatusMethodNotAllowed, "POST"},
		{"POST to stats", "POST", "/stats", http.StatusMethodNotAllowed, "GET"},
		{"non-integer update item", "POST", "/update?item=x&value=1", http.StatusBadRequest, "item"},
		{"negative update item", "POST", "/update?item=-1&value=1", http.StatusBadRequest, "negative"},
		{"update item out of range", "POST", "/update?item=999&value=1", http.StatusBadRequest, "range"},
		{"bad update value", "POST", "/update?item=1&value=x", http.StatusBadRequest, "value"},
		{"NaN update value", "POST", "/update?item=1&value=NaN", http.StatusBadRequest, "bad value"},
		{"Inf update value", "POST", "/update?item=1&value=Inf", http.StatusBadRequest, "bad value"},
		{"+Inf update value", "POST", "/update?item=1&value=%2BInf", http.StatusBadRequest, "bad value"},
		{"bad update work", "POST", "/update?item=1&value=1&work=zzz", http.StatusBadRequest, "work"},
		{"negative update work", "POST", "/update?item=1&value=1&work=-2ms", http.StatusBadRequest, "work"},
		{"query ok", "GET", "/query?items=1", http.StatusOK, ""},
		{"update ok", "POST", "/update?item=1&value=1", http.StatusOK, ""},
		{"stats ok", "GET", "/stats", http.StatusOK, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.wantStatus {
				t.Fatalf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.wantStatus)
			}
			if c.wantMsg != "" {
				var body [512]byte
				n, _ := resp.Body.Read(body[:])
				if !strings.Contains(strings.ToLower(string(body[:n])), strings.ToLower(c.wantMsg)) {
					t.Fatalf("body %q does not mention %q", body[:n], c.wantMsg)
				}
			}
		})
	}
}

// TestHTTPRejectionCarriesRetryAfter: a 429 tells the client when to come
// back.
func TestHTTPRejectionCarriesRetryAfter(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close() // a closed server rejects every query

	resp, err := http.Get(ts.URL + "/query?items=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 || secs > 30 {
		t.Fatalf("Retry-After %q, want integer seconds in [1, 30]", resp.Header.Get("Retry-After"))
	}
	var out QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Outcome != OutcomeRejected {
		t.Fatalf("outcome %s, want rejected", out.Outcome)
	}
}

// TestHTTPCanceledStatusCode: a request whose context is already dead maps
// to the 499 client-closed-request convention.
func TestHTTPCanceledStatusCode(t *testing.T) {
	s := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/query?items=1&deadline=5s", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("status %d, want %d", rec.Code, statusClientClosedRequest)
	}
}

// TestStatsExposesResilienceCounters: the JSON snapshot carries the PR 2
// counters so operators can see shed/panicked/canceled/drained rates.
func TestStatsExposesResilienceCounters(t *testing.T) {
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
	for _, key := range []string{"queries_shed", "queries_panicked", "queries_canceled", "queries_drained"} {
		if _, ok := m[key]; !ok {
			t.Errorf("stats missing %q", key)
		}
	}
}

// TestHTTPOutcomeMappingComplete exercises the full outcome→status table
// in one place: success 200, DSF 206, rejected 429, DMF 504.
func TestHTTPOutcomeMappingComplete(t *testing.T) {
	s := newTestServer(t, func(cfg *Config) {
		cfg.QueryWork = func(req QueryRequest) {
			// Item 7 sentinels a slow query that blows its deadline.
			if len(req.Items) > 0 && req.Items[0] == 7 {
				time.Sleep(80 * time.Millisecond)
			}
		}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := get("/query?items=1&deadline=2s"); code != http.StatusOK {
		t.Fatalf("success mapped to %d, want 200", code)
	}
	s.mu.Lock()
	s.store.DropUpdate(2)
	s.mu.Unlock()
	if code := get("/query?items=2&deadline=2s&freshness=0.9"); code != http.StatusPartialContent {
		t.Fatalf("DSF mapped to %d, want 206", code)
	}
	if code := get("/query?items=7&deadline=20ms"); code != http.StatusGatewayTimeout {
		t.Fatalf("DMF mapped to %d, want 504", code)
	}
	s.Close()
	if code := get("/query?items=1"); code != http.StatusTooManyRequests {
		t.Fatalf("rejection mapped to %d, want 429", code)
	}
}
