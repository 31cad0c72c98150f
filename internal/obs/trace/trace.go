// Package trace records the query lifecycle and the controller's
// allocation decisions into bounded ring buffers, for the live server's
// /debug endpoints and for deterministic offline dumps from the
// simulator (unitsim -trace).
//
// A Recorder never reads a clock: callers stamp every record with their
// own time base — virtual seconds in the engine, wall seconds since
// start in the live server — so attaching one to the deterministic
// engine cannot perturb a run, and same-seed runs dump byte-identical
// JSONL streams. Events and decisions share one sequence counter, so a
// merged dump totally orders the run.
package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Kind discriminates the span events of one query's lifecycle.
type Kind string

// Query lifecycle span events, in the order a query can emit them:
// arrive, then admit or reject, then queue, execute and outcome. A
// preempted or restarted query may execute more than once; its terminal
// outcome is emitted exactly once. Between queue and outcome the stage
// boundaries block (lock wait begins), preempt (execution suspended,
// back to the queue with progress kept) and restart (HP-abort discarded
// the attempt's work) mark where the query's time goes; the finalized
// per-stage attribution travels on the outcome event as a
// StageBreakdown. KindDecision tags controller records in merged dumps.
const (
	KindArrive   Kind = "arrive"
	KindAdmit    Kind = "admit"
	KindReject   Kind = "reject"
	KindQueue    Kind = "queue"
	KindExecute  Kind = "execute"
	KindBlock    Kind = "block"
	KindPreempt  Kind = "preempt"
	KindRestart  Kind = "restart"
	KindOutcome  Kind = "outcome"
	KindDecision Kind = "decision"
)

// StageBreakdown attributes one query's lifetime to pipeline stages, in
// the recorder's time base (virtual seconds in the engine, wall seconds
// in the live server). The stages partition the interval from admission
// to the terminal outcome:
//
//   - QueueWait: time in the ready queue, including re-queues after a
//     preemption or restart (preemption itself wastes no work — the
//     transaction resumes with its progress kept — so "preempt overhead"
//     surfaces here, as extra queueing).
//   - LockWait: time parked as a 2PL-HP lock waiter.
//   - Exec: CPU time of the attempt that reached the outcome.
//   - Overhead: CPU time discarded by HP-abort restarts (work executed
//     and thrown away; the restarted attempt starts from zero).
//
// Total is the sum of the four, which equals the span from admission to
// finalization up to float rounding — the conservation law the engine's
// stage tests assert. A rejected query has an all-zero breakdown.
type StageBreakdown struct {
	QueueWait float64 `json:"queue_wait"`
	LockWait  float64 `json:"lock_wait"`
	Exec      float64 `json:"exec"`
	Overhead  float64 `json:"overhead"`
	Total     float64 `json:"total"`
}

// Sum returns the stage durations' sum, for conservation checks against
// Total.
func (b StageBreakdown) Sum() float64 {
	return b.QueueWait + b.LockWait + b.Exec + b.Overhead
}

// Event is one span event of a query's lifecycle. T is in the caller's
// time base (sim seconds or wall seconds since server start).
type Event struct {
	Seq      uint64  `json:"seq"`
	T        float64 `json:"t"`
	Kind     Kind    `json:"kind"`
	Query    int64   `json:"query"`
	Items    int     `json:"items,omitempty"`    // item count, on arrive
	Deadline float64 `json:"deadline,omitempty"` // absolute deadline, on arrive
	Wait     float64 `json:"wait,omitempty"`     // time since arrival, on execute
	Outcome  string  `json:"outcome,omitempty"`  // terminal outcome, on outcome
	Fresh    float64 `json:"fresh,omitempty"`    // freshness read, on outcome
	// Shard is the 1-based shard index in streams merged from a sharded
	// run (see Merge); zero — and absent from the JSON — in single-engine
	// streams, so pre-sharding dumps stay byte-identical.
	Shard int `json:"shard,omitempty"`

	// Stages is the finalized per-stage latency attribution, set on
	// outcome events when the caller tracks stage boundaries (the engine
	// does whenever a recorder is attached; the live server stamps its
	// wall-clock equivalent). Nil on all other kinds and in pre-stage
	// dumps, so old traces still parse.
	Stages *StageBreakdown `json:"stages,omitempty"`
}

// Decision is one Load Balancing Controller firing: the windowed inputs
// it decided on (weighted costs R, F_m, F_s of paper Eq. 4 and the
// window USM), the chosen action (Fig. 2 lines 5–11), and the actuator
// settings after applying it — admission's C_flex and the number of
// update-degraded items.
type Decision struct {
	Seq           uint64  `json:"seq"`
	T             float64 `json:"t"`
	Samples       int     `json:"samples"`
	WindowUSM     float64 `json:"window_usm"`
	RCost         float64 `json:"r_cost"`
	FmCost        float64 `json:"fm_cost"`
	FsCost        float64 `json:"fs_cost"`
	DropTriggered bool    `json:"drop_triggered,omitempty"`
	Action        string  `json:"action"`
	CFlex         float64 `json:"cflex"`
	DegradedItems int     `json:"degraded_items"`
	// Shard is the 1-based shard index in merged streams (see Merge);
	// zero and absent in single-engine streams.
	Shard int `json:"shard,omitempty"`
}

// Default ring capacities.
const (
	DefaultEventCap    = 4096
	DefaultDecisionCap = 1024
)

// Recorder buffers the last EventCap events and DecisionCap decisions.
// It is safe for concurrent use; the engine drives it from a single
// goroutine, the live server from many. Because callers differ in
// goroutine structure, the rings are guarded by mu rather than owned by
// one goroutine — ownership here belongs to whoever holds the lock,
// which the locksafe/guardedflow analyzers verify.
type Recorder struct {
	mu        sync.Mutex
	seq       uint64     // guarded by mu; shared by events and decisions
	events    []Event    // guarded by mu; ring, grown lazily to cap
	eventCap  int        // immutable after New
	head      int        // guarded by mu; next write slot once full
	dropped   uint64     // guarded by mu; events overwritten
	decisions []Decision // guarded by mu; ring, grown lazily to cap
	decCap    int        // immutable after New
	dhead     int        // guarded by mu
	ddropped  uint64     // guarded by mu; decisions overwritten
}

// New creates a recorder keeping the last eventCap events and decCap
// decisions; non-positive capacities take the defaults.
func New(eventCap, decCap int) *Recorder {
	if eventCap <= 0 {
		eventCap = DefaultEventCap
	}
	if decCap <= 0 {
		decCap = DefaultDecisionCap
	}
	return &Recorder{eventCap: eventCap, decCap: decCap}
}

// Record appends one span event, stamping its sequence number.
func (r *Recorder) Record(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	ev.Seq = r.seq
	if len(r.events) < r.eventCap {
		r.events = append(r.events, ev)
		return
	}
	r.events[r.head] = ev
	r.head = (r.head + 1) % r.eventCap
	r.dropped++
}

// RecordDecision appends one controller decision, stamping its sequence
// number from the shared counter.
func (r *Recorder) RecordDecision(d Decision) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	d.Seq = r.seq
	if len(r.decisions) < r.decCap {
		r.decisions = append(r.decisions, d)
		return
	}
	r.decisions[r.dhead] = d
	r.dhead = (r.dhead + 1) % r.decCap
	r.ddropped++
}

// eventsLocked returns the buffered events oldest-first; callers hold mu.
func (r *Recorder) eventsLocked() []Event {
	out := make([]Event, 0, len(r.events))
	if len(r.events) < r.eventCap {
		return append(out, r.events...)
	}
	out = append(out, r.events[r.head:]...)
	return append(out, r.events[:r.head]...)
}

// decisionsLocked returns the buffered decisions oldest-first; callers
// hold mu.
func (r *Recorder) decisionsLocked() []Decision {
	out := make([]Decision, 0, len(r.decisions))
	if len(r.decisions) < r.decCap {
		return append(out, r.decisions...)
	}
	out = append(out, r.decisions[r.dhead:]...)
	return append(out, r.decisions[:r.dhead]...)
}

// Events returns the most recent n events, oldest-first. n <= 0 or
// n beyond the buffer returns everything buffered.
func (r *Recorder) Events(n int) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	all := r.eventsLocked()
	if n > 0 && n < len(all) {
		all = all[len(all)-n:]
	}
	return all
}

// Decisions returns the most recent n decisions, oldest-first. n <= 0 or
// n beyond the buffer returns everything buffered.
func (r *Recorder) Decisions(n int) []Decision {
	r.mu.Lock()
	defer r.mu.Unlock()
	all := r.decisionsLocked()
	if n > 0 && n < len(all) {
		all = all[len(all)-n:]
	}
	return all
}

// EventsFor returns every buffered span event of one query, oldest-
// first — the /debug/trace?query=<id> filter, and the hop an exemplar
// id from a histogram bucket links through to its trace span.
func (r *Recorder) EventsFor(query int64) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, ev := range r.eventsLocked() {
		if ev.Query == query {
			out = append(out, ev)
		}
	}
	return out
}

// EventCap returns the span-event ring capacity; Events can never return
// more than this many, so handlers clamp their n parameter against it.
func (r *Recorder) EventCap() int { return r.eventCap }

// DecisionCap returns the decision ring capacity.
func (r *Recorder) DecisionCap() int { return r.decCap }

// Dropped reports how many events and decisions the rings have
// overwritten since creation.
func (r *Recorder) Dropped() (events, decisions uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped, r.ddropped
}

// Merge folds the buffered streams of srcs into dst as one totally
// ordered logical stream: records sort by timestamp, ties break by
// source index and then by the source's own sequence order, and every
// record is stamped with its 1-based source shard before being
// re-recorded (dst assigns fresh sequence numbers). The result is a
// pure function of the sources' buffer contents, so merged dumps from a
// sharded run replay byte-identically — the property the scenario
// shard-replay tests pin. Records beyond dst's ring capacities fall off
// oldest-first, exactly as if dst had recorded them live.
func Merge(dst *Recorder, srcs ...*Recorder) {
	type rec struct {
		t   float64
		src int
		seq uint64 // source-local sequence
		ev  *Event
		dec *Decision
	}
	var all []rec
	for s, r := range srcs {
		if r == nil {
			continue
		}
		r.mu.Lock()
		events := r.eventsLocked()
		decisions := r.decisionsLocked()
		r.mu.Unlock()
		for i := range events {
			all = append(all, rec{t: events[i].T, src: s, seq: events[i].Seq, ev: &events[i]})
		}
		for i := range decisions {
			all = append(all, rec{t: decisions[i].T, src: s, seq: decisions[i].Seq, dec: &decisions[i]})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].t != all[j].t {
			return all[i].t < all[j].t
		}
		if all[i].src != all[j].src {
			return all[i].src < all[j].src
		}
		return all[i].seq < all[j].seq
	})
	for _, r := range all {
		if r.ev != nil {
			ev := *r.ev
			ev.Shard = r.src + 1
			dst.Record(ev)
			continue
		}
		d := *r.dec
		d.Shard = r.src + 1
		dst.RecordDecision(d)
	}
}

// decisionLine is a Decision tagged for the merged JSONL stream.
type decisionLine struct {
	Kind Kind `json:"kind"`
	Decision
}

// WriteJSONL dumps the buffered events and decisions as one JSON object
// per line, merged into sequence order. Events carry their lifecycle
// kind; decisions are tagged kind "decision". The encoding is a pure
// function of the buffer contents, so same-seed simulator runs dump
// byte-identical files.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	r.mu.Lock()
	events := r.eventsLocked()
	decisions := r.decisionsLocked()
	r.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	i, j := 0, 0
	for i < len(events) || j < len(decisions) {
		var v any
		if j >= len(decisions) || (i < len(events) && events[i].Seq < decisions[j].Seq) {
			v = events[i]
			i++
		} else {
			v = decisionLine{Kind: KindDecision, Decision: decisions[j]}
			j++
		}
		if err := enc.Encode(v); err != nil {
			return err
		}
	}
	return bw.Flush()
}
