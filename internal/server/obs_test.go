// Observability-surface tests: the /metrics exposition stays valid and
// lock-free under concurrent query load, the debug endpoints serve the
// trace and decision logs, and the stats snapshot honors its deep-copy
// and windowed-USM contracts.
package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"unitdb/internal/core/usm"
	"unitdb/internal/obs/promtext"
)

// TestMetricsEndpointWellFormed: a freshly booted server already serves a
// lintable exposition carrying every mandatory family.
func TestMetricsEndpointWellFormed(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != promtext.ContentType {
		t.Errorf("Content-Type = %q, want %q", got, promtext.ContentType)
	}
	families, err := promtext.Lint(resp.Body)
	if err != nil {
		t.Fatalf("exposition failed lint: %v", err)
	}
	for _, want := range []string{
		"unit_queries_total", "unit_query_latency_seconds", "unit_usm_window",
		"unit_usm", "unit_admission_cflex", "unit_queue_length",
		"unit_lbc_decisions_total", "unit_lbc_actions_total",
	} {
		if families[want] == 0 {
			t.Errorf("exposition is missing family %s", want)
		}
	}
}

// TestMetricsCountQueries: resolved queries show up in the outcome
// counters and the latency histogram.
func TestMetricsCountQueries(t *testing.T) {
	s := newTestServer(t)
	for i := 0; i < 5; i++ {
		s.Query(QueryRequest{Items: []int{i % 4}, Deadline: time.Second})
	}
	body := scrape(t, s)
	if !strings.Contains(body, `unit_queries_total{outcome="success"} 5`) {
		t.Errorf("success counter missing or wrong:\n%s", grepFamily(body, "unit_queries_total"))
	}
	if !strings.Contains(body, "unit_query_latency_seconds_count 5") {
		t.Errorf("latency histogram count missing or wrong:\n%s", grepFamily(body, "unit_query_latency_seconds_count"))
	}
}

// TestMetricsUnderConcurrentLoad hammers /query, /update and /metrics
// together; under -race this proves the scrape path shares no unguarded
// state with the hot path, and every intermediate exposition must lint.
func TestMetricsUnderConcurrentLoad(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Workers = 4 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const (
		clients   = 4
		perClient = 25
		scrapes   = 20
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Get(ts.URL + "/query?items=" + string(rune('0'+(c+i)%4)) + "&deadline=500ms")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				if i%3 == 0 {
					resp, err := http.Post(ts.URL+"/update?item=1&value=2.5", "", nil)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < scrapes; i++ {
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Errorf("scrape %d: %v", i, err)
				return
			}
			if _, err := promtext.Lint(resp.Body); err != nil {
				t.Errorf("scrape %d failed lint: %v", i, err)
			}
			resp.Body.Close()
		}
	}()
	wg.Wait()

	// The final exposition accounts for every query exactly once.
	body := scrape(t, s)
	var total int
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "unit_queries_total{") {
			fields := strings.Fields(line)
			n, err := strconv.Atoi(fields[len(fields)-1])
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			total += n
		}
	}
	if want := clients * perClient; total != want {
		t.Errorf("outcome counters sum to %d, want %d queries", total, want)
	}
}

// TestDebugEndpoints: the trace and controller logs are served as JSON and
// reflect the traffic.
func TestDebugEndpoints(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Query(QueryRequest{Items: []int{1}, Deadline: time.Second})

	var tr struct {
		Events []struct {
			Kind  string `json:"kind"`
			Query int64  `json:"query"`
		} `json:"events"`
	}
	getJSON(t, ts.URL+"/debug/trace?n=100", &tr)
	kinds := map[string]bool{}
	for _, ev := range tr.Events {
		kinds[ev.Kind] = true
	}
	for _, want := range []string{"arrive", "admit", "queue", "execute", "outcome"} {
		if !kinds[want] {
			t.Errorf("trace is missing a %q span for the resolved query; got %v", want, kinds)
		}
	}

	var ctl struct {
		Decisions []json.RawMessage `json:"decisions"`
	}
	getJSON(t, ts.URL+"/debug/controller?n=10", &ctl)
	// No decision need have fired yet; the endpoint must still answer.

	for _, path := range []string{"/debug/trace?n=-1", "/debug/trace?n=x", "/debug/controller?n=-1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), "bad n") {
			t.Errorf("GET %s error %q does not name the field", path, string(body))
		}
	}
}

// TestStatsCallsReturnPromptly: Stats and StatsWindow each take s.mu
// once and build the snapshot with statsLocked. A call to Stats (or any
// other s.mu acquirer) while s.mu is held blocks forever on the
// non-reentrant mutex, so the calls run on a goroutine under a deadline.
// s is closed only after they return: Close takes s.mu too, so a
// t.Cleanup(s.Close) would hang the same way.
func TestStatsCallsReturnPromptly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumItems = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.StatsWindow(time.Minute)
		s.StatsWindow(0)
		s.Stats()
	}()
	select {
	case <-done:
		s.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("Stats/StatsWindow did not return within 5s: a call re-acquires s.mu while holding it (use statsLocked under the lock)")
	}
}

// TestStatsWindow: the windowed USM covers recent outcomes, ignores old
// ones, and bad window values fail with a named-field 400.
func TestStatsWindow(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.Query(QueryRequest{Items: []int{1}, Deadline: time.Second})
	s.Query(QueryRequest{Items: []int{2}, Deadline: time.Second})

	var st Stats
	getJSON(t, ts.URL+"/stats?window=10s", &st)
	if st.Window == nil {
		t.Fatal("windowed stats carry no window block")
	}
	if st.Window.Seconds != 10 {
		t.Errorf("window.seconds = %v, want 10", st.Window.Seconds)
	}
	if st.Window.Covered > 10 || st.Window.Covered <= 0 {
		t.Errorf("window.covered_seconds = %v, want in (0, 10] (uptime-truncated)", st.Window.Covered)
	}
	if got := st.Window.Counts.Total(); got != 2 {
		t.Errorf("window counts %d outcomes, want 2", got)
	}

	// A microscopic window excludes the past outcomes.
	time.Sleep(5 * time.Millisecond)
	getJSON(t, ts.URL+"/stats?window=1ms", &st)
	if got := st.Window.Counts.Total(); got != 0 {
		t.Errorf("1ms window counts %d outcomes, want 0", got)
	}

	// Plain /stats has no window block but does carry the retry hint.
	var plain Stats
	getJSON(t, ts.URL+"/stats", &plain)
	if plain.Window != nil {
		t.Error("plain /stats grew a window block")
	}
	if plain.RetryAfterSeconds < 1 {
		t.Errorf("retry_after_seconds = %v, want >= 1 (the clamp floor)", plain.RetryAfterSeconds)
	}

	for _, raw := range []string{"nope", "-5s", "0s"} {
		resp, err := http.Get(ts.URL + "/stats?window=" + raw)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("window=%q = %d, want 400", raw, resp.StatusCode)
		}
		if !strings.Contains(string(body), "bad window") {
			t.Errorf("window=%q error %q does not name the field", raw, string(body))
		}
	}
}

// TestStatsContentTypeAndDeepCopy: /stats declares JSON, and mutating a
// snapshot's signal map never reaches the server.
func TestStatsContentTypeAndDeepCopy(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "application/json" {
		t.Errorf("/stats Content-Type = %q, want application/json", got)
	}

	st := s.Stats()
	if st.LBCSignals == nil {
		t.Fatal("snapshot's signal map is nil; want an (empty) copy")
	}
	st.LBCSignals["tighten_ac"] = 99
	if got := s.Stats().LBCSignals["tighten_ac"]; got != 0 {
		t.Errorf("mutating a snapshot leaked into the server: tighten_ac = %d", got)
	}
}

// TestControllerDecisionLog: sustained rejections force LBC decisions;
// the decision log, the signal counters and the action metrics agree.
func TestControllerDecisionLog(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.Weights.Cfm = 0.5
	})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var st Stats
		// Work longer than the deadline: every query misses, so every
		// decision window carries failures and must fire a signal.
		for i := 0; i < 30; i++ {
			s.Query(QueryRequest{Items: []int{i % 8}, Work: 20 * time.Millisecond, Deadline: 5 * time.Millisecond})
		}
		st = s.Stats()
		if st.LBCDecisions > 0 {
			decs := s.TraceRecorder().Decisions(0)
			// The control loop keeps ticking, so the log may have grown
			// past the snapshot — never shrunk below it.
			if len(decs) < st.LBCDecisions {
				t.Fatalf("decision log has %d entries, stats count %d", len(decs), st.LBCDecisions)
			}
			d := decs[len(decs)-1]
			if d.Samples <= 0 {
				t.Errorf("decision logged %d samples, want > 0", d.Samples)
			}
			if d.Action == "" {
				t.Error("decision logged an empty action")
			}
			var signals int
			for _, n := range st.LBCSignals {
				signals += n
			}
			if signals == 0 {
				t.Error("decisions fired but no control signal was tallied")
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Skip("no LBC decision fired within the time budget on this machine")
}

// newManualServer returns a test server whose control loop never ticks on
// its own (hour-long period and grace), so a test steps controlTick
// itself; only the USM-drop trigger can then decide.
func newManualServer(t *testing.T, mutate ...func(*Config)) *Server {
	return newTestServer(t, append([]func(*Config){func(c *Config) {
		c.ControlPeriod, c.GracePeriod = time.Hour, time.Hour
	}}, mutate...)...)
}

// tickAfter runs n copies of req, then one control tick.
func tickAfter(t *testing.T, s *Server, n int, req QueryRequest, want Outcome) {
	t.Helper()
	for i := 0; i < n; i++ {
		if resp := s.Query(req); resp.Outcome != want {
			t.Fatalf("outcome %s, want %s", resp.Outcome, want)
		}
	}
	s.controlTick()
}

var okQuery = QueryRequest{Items: []int{1}, Work: time.Millisecond, Deadline: time.Second}

// TestControllerKeepsAdmissionWhenRejectionsCostMore: with C_r above
// C_fm, a window of deadline misses degrades updates but must not tighten
// admission, since that would trade misses for costlier rejections.
func TestControllerKeepsAdmissionWhenRejectionsCostMore(t *testing.T) {
	s := newManualServer(t, func(c *Config) {
		c.Weights = usm.Weights{Cr: 0.8, Cfm: 0.2, Cfs: 0.2}
		// The work overruns what the query declares, so admission lets it
		// in and it misses its deadline on the worker.
		c.QueryWork = func(req QueryRequest) { time.Sleep(req.Work + 15*time.Millisecond) }
	})
	tickAfter(t, s, 5, okQuery, OutcomeSuccess)
	tickAfter(t, s, 5, QueryRequest{Items: []int{1}, Work: time.Millisecond, Deadline: 10 * time.Millisecond}, OutcomeDMF)
	st := s.Stats()
	if st.LBCDecisions != 1 || st.LBCSignals["degrade_update"] != 1 {
		t.Fatalf("decisions %d, signals %v; want one Degrade decision", st.LBCDecisions, st.LBCSignals)
	}
	if st.CFlex != 1 || st.LBCSignals["tighten_ac"] != 0 {
		t.Fatalf("C_r > C_fm: C_flex = %v, signals %v; want C_flex 1 and no tighten_ac", st.CFlex, st.LBCSignals)
	}
}

// TestIdleTickKeepsWindowUSM: a control tick with no new outcomes leaves
// unit_usm_window at the last window's value instead of reading the empty
// window's USM of 0.
func TestIdleTickKeepsWindowUSM(t *testing.T) {
	s := newManualServer(t)
	tickAfter(t, s, 5, okQuery, OutcomeSuccess)
	// Work beyond the deadline fails the admission deadline check.
	tickAfter(t, s, 5, QueryRequest{Items: []int{1}, Work: 20 * time.Millisecond, Deadline: 5 * time.Millisecond}, OutcomeRejected)
	if n := s.Stats().LBCDecisions; n != 1 {
		t.Fatalf("decisions = %d, want 1", n)
	}
	// Five successes and five rejections at zero weights.
	if got := s.obs.usmWindow.Value(); got != 0.5 {
		t.Fatalf("unit_usm_window at the decision = %v, want 0.5", got)
	}
	s.controlTick()
	if got := s.obs.usmWindow.Value(); got != 0.5 {
		t.Fatalf("unit_usm_window after an idle tick = %v, want 0.5", got)
	}
}

// scrape renders the server's registry exactly as /metrics would.
func scrape(t *testing.T, s *Server) string {
	t.Helper()
	var b strings.Builder
	if err := promtext.Write(&b, s.Metrics().Snapshot()); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// grepFamily filters an exposition down to the lines of one family, for
// error messages.
func grepFamily(body, family string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, family) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}
