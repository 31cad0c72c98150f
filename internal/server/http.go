package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"unitdb/internal/obs/metrics"
	"unitdb/internal/obs/promtext"
	"unitdb/internal/obs/trace"
)

// MaxQueryItems bounds the items list a single query may name. Larger
// lists are rejected before any parsing work is spent on them.
const MaxQueryItems = 64

// statusClientClosedRequest reports a query abandoned because its client
// disconnected (nginx's 499 convention; no standard code exists). The
// response is written for symmetry only — the client is gone.
const statusClientClosedRequest = 499

// backend is the server surface the HTTP layer drives: a single live
// Server, or the sharded front door routing over several of them. Both
// share one handler, so the HTTP contract (endpoints, status codes,
// response shapes) is identical at every shard count.
type backend interface {
	QueryCtx(ctx context.Context, req QueryRequest) QueryResponse
	Update(req UpdateRequest) (bool, error)
	StatsWindow(window time.Duration) Stats
	RetryAfter() time.Duration
	Metrics() *metrics.Registry
	TraceRecorder() *trace.Recorder
	slowTop(n int) []slowEntry
}

// Handler returns the HTTP interface of the live server:
//
//	GET  /query?items=3,5&deadline=200ms&work=20ms&freshness=0.9
//	POST /update?item=3&value=1.23&work=5ms
//	GET  /stats[?window=30s]
//	GET  /metrics
//	GET  /debug/trace?n=100[&query=17]
//	GET  /debug/controller?n=50
//	GET  /debug/slow?n=10
//	GET  /healthz
//
// Outcomes map to status codes: success 200, data-stale 206 (the result is
// returned with a staleness notice, paper §3.1), rejected 429 with a
// Retry-After estimate, deadline-missed 504, canceled 499.
//
// Durations take any time.ParseDuration form; Client sends integer
// nanoseconds (deadline=200000000ns), which are exact. The /query and
// /update bodies come from the wire codec (wire.go) and are byte for byte
// what encoding/json writes for the same values; the other endpoints use
// encoding/json itself.
func (s *Server) Handler() http.Handler { return newHandler(s) }

// newHandler wires the shared HTTP surface onto one backend.
func newHandler(b backend) http.Handler {
	a := &httpAPI{b: b}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", a.handleQuery)
	mux.HandleFunc("/update", a.handleUpdate)
	mux.HandleFunc("/stats", a.handleStats)
	mux.HandleFunc("/metrics", a.handleMetrics)
	mux.HandleFunc("/debug/trace", a.handleTrace)
	mux.HandleFunc("/debug/controller", a.handleController)
	mux.HandleFunc("/debug/slow", a.handleSlow)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	return mux
}

// httpAPI carries the backend through the handler methods.
type httpAPI struct{ b backend }

func (a *httpAPI) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	raw := r.URL.RawQuery
	items, err := parseItems(queryParam(raw, "items"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	deadline, err := parseDurationDefault(queryParam(raw, "deadline"), time.Second)
	if err != nil {
		http.Error(w, "bad deadline: "+err.Error(), http.StatusBadRequest)
		return
	}
	if deadline < 0 {
		http.Error(w, "bad deadline: must not be negative", http.StatusBadRequest)
		return
	}
	work, err := parseDurationDefault(queryParam(raw, "work"), 0)
	if err != nil {
		http.Error(w, "bad work: "+err.Error(), http.StatusBadRequest)
		return
	}
	if work < 0 {
		http.Error(w, "bad work: must not be negative", http.StatusBadRequest)
		return
	}
	fresh := 0.0
	if f := queryParam(raw, "freshness"); f != "" {
		fresh, err = strconv.ParseFloat(f, 64)
		if err != nil || math.IsNaN(fresh) || fresh <= 0 || fresh > 1 {
			http.Error(w, "bad freshness: must be in (0, 1]", http.StatusBadRequest)
			return
		}
	}
	resp := a.b.QueryCtx(r.Context(), QueryRequest{Items: items, Deadline: deadline, Work: work, Freshness: fresh})
	code := http.StatusOK
	switch resp.Outcome {
	case OutcomeRejected:
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", strconv.Itoa(int(a.b.RetryAfter().Seconds())))
	case OutcomeDMF:
		code = http.StatusGatewayTimeout
	case OutcomeDSF:
		code = http.StatusPartialContent
	case OutcomeCanceled:
		code = statusClientClosedRequest
	}
	writeQueryResponse(w, code, &resp)
}

func (a *httpAPI) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	raw := r.URL.RawQuery
	item, err := strconv.Atoi(queryParam(raw, "item"))
	if err != nil {
		http.Error(w, "bad item: must be an integer id", http.StatusBadRequest)
		return
	}
	if item < 0 {
		http.Error(w, "bad item: must not be negative", http.StatusBadRequest)
		return
	}
	value, err := strconv.ParseFloat(queryParam(raw, "value"), 64)
	if err != nil {
		http.Error(w, "bad value: must be a number", http.StatusBadRequest)
		return
	}
	work, err := parseDurationDefault(queryParam(raw, "work"), 0)
	if err != nil {
		http.Error(w, "bad work: "+err.Error(), http.StatusBadRequest)
		return
	}
	if work < 0 {
		http.Error(w, "bad work: must not be negative", http.StatusBadRequest)
		return
	}
	applied, err := a.b.Update(UpdateRequest{Item: item, Value: value, Work: work})
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ack := ackDropped
	if applied {
		ack = ackApplied
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(ack)
}

func (a *httpAPI) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	window := time.Duration(0)
	if raw := queryParam(r.URL.RawQuery, "window"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			http.Error(w, "bad window: must be a positive duration like 30s", http.StatusBadRequest)
			return
		}
		window = d
	}
	writeJSON(w, http.StatusOK, a.b.StatsWindow(window))
}

// handleMetrics serves the registry in Prometheus text exposition format
// (version 0.0.4). The scrape reads atomic snapshots only — it never takes
// the server's lock, so it stays responsive under query load.
func (a *httpAPI) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", promtext.ContentType)
	_ = promtext.Write(w, a.b.Metrics().Snapshot())
}

// parseN parses the n=K tail-length parameter of the debug endpoints;
// 0 (absent) means everything retained.
func parseN(r *http.Request) (int, error) {
	raw := queryParam(r.URL.RawQuery, "n")
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad n: must be a non-negative integer")
	}
	return n, nil
}

// handleTrace serves the last n query-lifecycle span events as JSON.
// n absent (or 0) returns everything buffered; n is capped at the ring
// capacity, beyond which no more events can exist. query=<id> filters to
// one query's spans — the hop a histogram-bucket exemplar links through.
func (a *httpAPI) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	n, err := parseN(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rec := a.b.TraceRecorder()
	if n > rec.EventCap() {
		n = rec.EventCap()
	}
	evDropped, _ := rec.Dropped()
	if raw := queryParam(r.URL.RawQuery, "query"); raw != "" {
		id, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			http.Error(w, "bad query: must be an integer query id", http.StatusBadRequest)
			return
		}
		events := rec.EventsFor(id)
		if n > 0 && n < len(events) {
			events = events[len(events)-n:]
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"query":   id,
			"events":  events,
			"dropped": evDropped,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"events":  rec.Events(n),
		"dropped": evDropped,
	})
}

// handleController serves the last n Load Balancing Controller decisions
// as JSON. n absent (or 0) returns everything buffered; n is capped at
// the decision-ring capacity.
func (a *httpAPI) handleController(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	n, err := parseN(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rec := a.b.TraceRecorder()
	if n > rec.DecisionCap() {
		n = rec.DecisionCap()
	}
	_, decDropped := rec.Dropped()
	writeJSON(w, http.StatusOK, map[string]any{
		"decisions": rec.Decisions(n),
		"dropped":   decDropped,
	})
}

// handleSlow serves the n slowest resolved queries retained so far,
// slowest first, each with its latency and stage breakdown. n absent
// (or 0) returns everything retained (at most the tracker's capacity).
func (a *httpAPI) handleSlow(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	n, err := parseN(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	entries := a.b.slowTop(n)
	writeJSON(w, http.StatusOK, map[string]any{
		"slowest": entries,
		"count":   len(entries),
	})
}

func parseDurationDefault(raw string, def time.Duration) (time.Duration, error) {
	if raw == "" {
		return def, nil
	}
	return time.ParseDuration(raw)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeQueryResponse is writeJSON for the hot /query shape: the same
// bytes, encoded by appendQueryResponse into a pooled buffer. The body is
// encoded before the header goes out, so a response that cannot be
// encoded answers 500 rather than an empty 200.
func writeQueryResponse(w http.ResponseWriter, code int, resp *QueryResponse) {
	buf := wireBufs.Get().(*[]byte)
	defer putWireBuf(buf)
	b, err := appendQueryResponse((*buf)[:0], resp)
	*buf = b
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_, _ = w.Write(b)
}
