package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// spanHeader carries a traced request's id from the client to the wrapped
// handler, so the handler's span joins the client's.
const spanHeader = "X-Bench-Span"

// span is one recorded interval. Spans of one request share Trace; Parent
// names the span that caused this one. Times are nanoseconds since the
// run began. The innermost measured span also carries the stamps the
// server returned, which is how the layers below it are seen from outside.
type span struct {
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	Workload    string  `json:"workload,omitempty"`
	Query       int64   `json:"query,omitempty"`
	Result      string  `json:"outcome,omitempty"`
	LatencyNs   int64   `json:"latency_ns,omitempty"`
	QueueWaitS  float64 `json:"queue_wait_s,omitempty"`
	ExecS       float64 `json:"exec_s,omitempty"`
	StageTotalS float64 `json:"stage_total_s,omitempty"`
}

// tracer is the benchmark's in-memory span recorder. It lives in the
// benchmark's own files and wraps the calls into each layer; nothing
// inside the program under test is touched.
type tracer struct {
	mu       sync.Mutex
	next     uint64
	spans    []span
	handlers map[uint64][2]time.Duration // trace id -> handler start, end
}

func newTracer() *tracer {
	return &tracer{handlers: map[uint64][2]time.Duration{}}
}

// stamper is a client's transport. While its owner has a traced request
// in flight it stamps the request with the trace id.
type stamper struct {
	base *http.Transport
	id   uint64 // set by the owning client goroutine around its own call
}

func (s *stamper) RoundTrip(req *http.Request) (*http.Response, error) {
	if s.id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(s.id, 10))
	}
	return s.base.RoundTrip(req)
}

// begin opens a trace. st is the calling client's transport, nil on a
// direct-call workload.
func (t *tracer) begin(st *stamper) uint64 {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	if st != nil {
		st.id = id
	}
	return id
}

// wrap records a span around the server's handler for stamped requests,
// on sys's clock.
func (t *tracer) wrap(h http.Handler, sys *system) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		stamp := r.Header.Get(spanHeader)
		if stamp == "" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Since(sys.start)
		h.ServeHTTP(w, r)
		end := time.Since(sys.start)
		if id, err := strconv.ParseUint(stamp, 10, 64); err == nil {
			t.mu.Lock()
			t.handlers[id] = [2]time.Duration{start, end}
			t.mu.Unlock()
		}
	})
}

// finish closes a trace: it records the client span around the call and,
// over HTTP, the handler span the wrapped handler left behind, and returns
// the handler span's duration (0 on a direct call).
func (t *tracer) finish(id uint64, st *stamper, workload string, r *rec, query int64) time.Duration {
	if st != nil {
		st.id = 0
	}
	client := span{Trace: id, Name: "client", Start: int64(r.start), End: int64(r.end), Workload: workload}
	inner := &client
	t.mu.Lock()
	defer t.mu.Unlock()
	var handler span
	hs, ok := t.handlers[id]
	if ok {
		delete(t.handlers, id)
		handler = span{Trace: id, Name: "handler", Parent: "client", Start: int64(hs[0]), End: int64(hs[1])}
		inner = &handler
	}
	inner.Query, inner.Result, inner.LatencyNs = query, outcomeName[r.outcome], int64(r.srvLatency)
	inner.QueueWaitS, inner.ExecS, inner.StageTotalS = r.queueWait, r.exec, r.stageTotal
	t.spans = append(t.spans, client)
	if ok {
		t.spans = append(t.spans, handler)
	}
	return hs[1] - hs[0]
}

// flush writes the spans out as JSON lines and returns how many.
func (t *tracer) flush(dir, workload string, seed uint64) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", workload, seed)))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	return len(t.spans), f.Close()
}
