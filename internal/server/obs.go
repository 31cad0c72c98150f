package server

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"unitdb/internal/core"
	"unitdb/internal/core/control"
	"unitdb/internal/obs/metrics"
	"unitdb/internal/obs/trace"
	"unitdb/internal/txn"
	"unitdb/internal/version"
)

// latency histogram layout: 50 equal buckets over [0, 2.5s) — queries
// default to 1 s deadlines, so the range covers the deadline plus the
// retry-relevant tail; slower outliers land in the overflow (+Inf)
// bucket.
const (
	latencyLo      = 0
	latencyHi      = 2.5
	latencyBuckets = 50
)

// serverObs bundles the server's observability surface: the metrics
// registry with pre-registered handles (so the hot path is a single
// atomic per event, never a map lookup) and the wall-time trace
// recorder behind /debug/trace and /debug/controller. All fields are
// set in newServerObs before the Server escapes and are immutable
// afterwards; the handles themselves are internally synchronized.
type serverObs struct {
	reg *metrics.Registry
	rec *trace.Recorder

	outcomes  map[Outcome]*metrics.Counter
	shed      *metrics.Counter
	panicked  *metrics.Counter
	drained   *metrics.Counter
	updates   map[bool]*metrics.Counter // keyed by applied
	latency   *metrics.Histogram
	stages    map[string]*metrics.Histogram // keyed by stage label
	slow      *slowTracker
	usmWindow *metrics.Gauge
	usmTotal  *metrics.Gauge
	cflex     *metrics.Gauge
	queueLen  *metrics.Gauge
	backlog   *metrics.Gauge
	degraded  *metrics.Gauge
	staleness *metrics.Gauge
	decisions *metrics.Counter
	actions   map[string]*metrics.Counter
}

// stageLabels are the exposition labels of the latency-attribution
// stages, matching the trace.StageBreakdown fields. The live server has
// no lock manager and never restarts an attempt, so lock_wait and
// overhead stay at zero — the series exist anyway so dashboards keep one
// shape across the simulator and the live server, and so per-stage
// counts reconcile with the outcome counters (every resolved query
// observes every stage, zeros included).
var stageLabels = []string{"queue_wait", "lock_wait", "exec", "overhead"}

// slowCap bounds the /debug/slow top-N tracker.
const slowCap = 64

// newServerObs builds the observability surface. reg is the registry to
// register into — a shared registry when the server is one shard behind
// the front door, nil for a fresh private one. rec is the span-event
// recorder to use — Config.Trace when a harness injects its own (or the
// front door's shared ring), nil for a fresh internal ring of traceCap
// events. extra labels (e.g. shard="3") are appended to every series the
// surface registers, so shards share one registry without colliding
// while the family names stay identical to the single-server layout.
func newServerObs(reg *metrics.Registry, traceCap int, rec *trace.Recorder, extra ...metrics.Label) *serverObs {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	if rec == nil {
		rec = trace.New(traceCap, 0)
	}
	lab := func(ls ...metrics.Label) []metrics.Label {
		out := make([]metrics.Label, 0, len(ls)+len(extra))
		out = append(out, ls...)
		return append(out, extra...)
	}
	o := &serverObs{
		reg:      reg,
		rec:      rec,
		outcomes: make(map[Outcome]*metrics.Counter),
		updates:  make(map[bool]*metrics.Counter),
		stages:   make(map[string]*metrics.Histogram),
		slow:     newSlowTracker(slowCap),
		actions:  make(map[string]*metrics.Counter),
	}
	for _, out := range []Outcome{OutcomeSuccess, OutcomeRejected, OutcomeDMF, OutcomeDSF, OutcomeCanceled} {
		o.outcomes[out] = reg.Counter("unit_queries_total",
			"Resolved user queries by terminal outcome.",
			lab(metrics.Label{Key: "outcome", Value: string(out)})...)
	}
	o.shed = reg.Counter("unit_queries_shed_total",
		"Queries rejected by the MaxQueue overload backstop.", lab()...)
	o.panicked = reg.Counter("unit_work_panics_total",
		"Query or refresh computations that panicked (contained; the pool never shrinks).", lab()...)
	o.drained = reg.Counter("unit_queries_drained_total",
		"Queued queries resolved as rejections during graceful shutdown.", lab()...)
	o.updates[true] = reg.Counter("unit_updates_total",
		"Update-feed writes by fate.", lab(metrics.Label{Key: "result", Value: "applied"})...)
	o.updates[false] = reg.Counter("unit_updates_total",
		"Update-feed writes by fate.", lab(metrics.Label{Key: "result", Value: "dropped"})...)
	o.latency = reg.Histogram("unit_query_latency_seconds",
		"Wall-clock latency of resolved queries, all outcomes.",
		latencyLo, latencyHi, latencyBuckets, lab()...)
	for _, st := range stageLabels {
		o.stages[st] = reg.Histogram("unit_query_stage_seconds",
			"Wall-clock time resolved queries spent per pipeline stage; bucket exemplars carry the last query id observed.",
			latencyLo, latencyHi, latencyBuckets,
			lab(metrics.Label{Key: "stage", Value: st})...)
	}
	reg.Gauge("unit_build_info",
		"Build metadata; the value is always 1.",
		lab(metrics.Label{Key: "goversion", Value: runtime.Version()},
			metrics.Label{Key: "version", Value: version.Version})...).Set(1)
	o.usmWindow = reg.Gauge("unit_usm_window",
		"User Satisfaction Metric over the current control window (Eq. 5).", lab()...)
	o.usmTotal = reg.Gauge("unit_usm",
		"Cumulative User Satisfaction Metric since start (Eq. 5).", lab()...)
	o.cflex = reg.Gauge("unit_admission_cflex",
		"Admission control's flexibility coefficient C_flex (paper §3.3).", lab()...)
	o.queueLen = reg.Gauge("unit_queue_length",
		"Queries waiting in the EDF ready queue.", lab()...)
	o.backlog = reg.Gauge("unit_backlog_seconds",
		"Declared work queued ahead of a new arrival, seconds.", lab()...)
	o.degraded = reg.Gauge("unit_degraded_items",
		"Items whose update period the modulator has degraded (paper §3.4).", lab()...)
	o.staleness = reg.Gauge("unit_stale_items",
		"Items whose stored copy lags its source feed.", lab()...)
	o.decisions = reg.Counter("unit_lbc_decisions_total",
		"Load Balancing Controller allocation decisions (paper Fig. 2).", lab()...)
	for _, a := range core.SignalNames {
		o.actions[a] = reg.Counter("unit_lbc_actions_total",
			"Actuator moves applied by LBC decisions.",
			lab(metrics.Label{Key: "action", Value: a})...)
	}
	return o
}

// observeQuery tallies one resolved query into the registry. The counter
// and histogram updates run lock-free (pure atomics) after s.mu is
// released, so the metrics hot path never blocks a worker or another
// client; only the bounded slow tracker takes its own small lock, off
// every worker's critical path. Every resolved query observes every
// stage series — zeros included, and all-zero when Stages is nil (a
// request that never entered the queue) — so per-stage counts reconcile
// exactly with the outcome counters. The query id rides along as the
// bucket exemplar, linking a fat bucket to /debug/trace?query=<id>.
func (o *serverObs) observeQuery(resp QueryResponse) {
	if c := o.outcomes[resp.Outcome]; c != nil {
		c.Inc()
	}
	o.latency.ObserveEx(resp.Latency.Seconds(), resp.Query)
	var b trace.StageBreakdown
	if resp.Stages != nil {
		b = *resp.Stages
	}
	o.stages["queue_wait"].ObserveEx(b.QueueWait, resp.Query)
	o.stages["lock_wait"].ObserveEx(b.LockWait, resp.Query)
	o.stages["exec"].ObserveEx(b.Exec, resp.Query)
	o.stages["overhead"].ObserveEx(b.Overhead, resp.Query)
	o.slow.observe(slowEntry{
		Query:   resp.Query,
		Outcome: resp.Outcome,
		Latency: resp.Latency.Seconds(),
		Stages:  resp.Stages,
	})
}

// slowEntry is one resolved query retained by the top-N-slowest tracker,
// the JSON shape of /debug/slow.
type slowEntry struct {
	Query   int64                 `json:"query"`
	Outcome Outcome               `json:"outcome"`
	Latency float64               `json:"latency_seconds"`
	Stages  *trace.StageBreakdown `json:"stages,omitempty"`
}

// slowTracker retains the cap slowest resolved queries seen so far, for
// GET /debug/slow?n=. It is a small min-heap ordered by latency: the
// root is the fastest retained entry, evicted whenever a slower query
// arrives, so membership is exact (the true top-cap), not a sample.
type slowTracker struct {
	mu      sync.Mutex
	cap     int
	entries []slowEntry // guarded by mu; min-heap by Latency
}

func newSlowTracker(cap int) *slowTracker {
	return &slowTracker{cap: cap}
}

// observe offers one resolved query to the tracker.
func (t *slowTracker) observe(e slowEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.entries) < t.cap {
		t.entries = append(t.entries, e)
		t.siftUpLocked(len(t.entries) - 1)
		return
	}
	if e.Latency <= t.entries[0].Latency {
		return
	}
	t.entries[0] = e
	t.siftDownLocked(0)
}

func (t *slowTracker) siftUpLocked(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if t.entries[p].Latency <= t.entries[i].Latency {
			return
		}
		t.entries[p], t.entries[i] = t.entries[i], t.entries[p]
		i = p
	}
}

func (t *slowTracker) siftDownLocked(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(t.entries) && t.entries[l].Latency < t.entries[min].Latency {
			min = l
		}
		if r < len(t.entries) && t.entries[r].Latency < t.entries[min].Latency {
			min = r
		}
		if min == i {
			return
		}
		t.entries[i], t.entries[min] = t.entries[min], t.entries[i]
		i = min
	}
}

// topN returns the n slowest retained queries, slowest first (ties broken
// by query id for a stable order). n <= 0 or beyond the retained set
// returns everything retained.
func (t *slowTracker) topN(n int) []slowEntry {
	t.mu.Lock()
	out := append([]slowEntry(nil), t.entries...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Latency != out[j].Latency {
			return out[i].Latency > out[j].Latency
		}
		return out[i].Query < out[j].Query
	})
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// recordActions tallies one decision and the actuator moves the kernel
// applied for it.
func (o *serverObs) recordActions(a control.Action) {
	o.decisions.Inc()
	for i, on := range core.Moves(a) {
		if on {
			o.actions[core.SignalNames[i]].Inc()
		}
	}
}

// outcomeStamp is one finalized outcome with its wall time, feeding the
// windowed USM of GET /stats?window=.
type outcomeStamp struct {
	at time.Time
	o  txn.Outcome
}

// winLogCap bounds the windowed-USM history: at 32k outcomes a sustained
// 1k queries/s load still covers a ~30 s window exactly; beyond that the
// window silently truncates to the retained history (the JSON response
// reports the effective horizon).
const winLogCap = 1 << 15
