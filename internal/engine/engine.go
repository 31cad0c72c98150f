// Package engine is the web-database server simulator: a single preemptive
// CPU fed by the dual-priority EDF ready queue (updates above queries,
// paper §3.1), 2PL-HP concurrency control, firm query deadlines (late
// queries are aborted wherever they are), periodic update feeds with
// supersede semantics (a newer full-value refresh replaces a stale queued
// one), and policy hooks through which UNIT and the baseline algorithms
// steer admission and update execution.
package engine

import (
	"fmt"

	"unitdb/internal/core/usm"
	"unitdb/internal/datastore"
	"unitdb/internal/eventsim"
	"unitdb/internal/lockmgr"
	"unitdb/internal/obs/trace"
	"unitdb/internal/readyq"
	"unitdb/internal/stats"
	"unitdb/internal/txn"
	"unitdb/internal/workload"
)

// Policy is the decision surface of a transaction-management algorithm.
// The engine is the mechanism; UNIT, IMU, ODU and QMF are policies.
type Policy interface {
	// Name identifies the policy in results.
	Name() string
	// Attach binds the policy to an engine before the run starts.
	Attach(e *Engine)
	// AdmitQuery decides whether to accept an arriving user query.
	AdmitQuery(q *txn.Txn) bool
	// AdmitUpdate decides whether an arriving source update for item is
	// executed (true) or dropped (false).
	AdmitUpdate(item int) bool
	// OnSourceUpdate observes every source update arrival (applied or
	// dropped), before AdmitUpdate decides its fate.
	OnSourceUpdate(item int, exec float64)
	// BeforeQueryDispatch runs when a query is about to start executing.
	// Returning false postpones the query (the policy has enqueued
	// prerequisite work, e.g. ODU's on-demand refreshes).
	BeforeQueryDispatch(q *txn.Txn) bool
	// OnQueryDone observes a finalized query outcome.
	OnQueryDone(q *txn.Txn)
	// OnUpdateApplied observes an update commit.
	OnUpdateApplied(u *txn.Txn)
	// ControlPeriod returns the feedback-control tick period; zero or
	// negative disables ticks.
	ControlPeriod() float64
	// OnControlTick runs once per control period.
	OnControlTick()
}

// Base is a Policy with no-op hooks, for embedding.
type Base struct{}

// Attach implements Policy.
func (Base) Attach(*Engine) {}

// AdmitQuery implements Policy: always admit.
func (Base) AdmitQuery(*txn.Txn) bool { return true }

// AdmitUpdate implements Policy: always execute.
func (Base) AdmitUpdate(int) bool { return true }

// OnSourceUpdate implements Policy.
func (Base) OnSourceUpdate(int, float64) {}

// BeforeQueryDispatch implements Policy: never postpone.
func (Base) BeforeQueryDispatch(*txn.Txn) bool { return true }

// OnQueryDone implements Policy.
func (Base) OnQueryDone(*txn.Txn) {}

// OnUpdateApplied implements Policy.
func (Base) OnUpdateApplied(*txn.Txn) {}

// ControlPeriod implements Policy: no control loop.
func (Base) ControlPeriod() float64 { return 0 }

// OnControlTick implements Policy.
func (Base) OnControlTick() {}

// Disturbance perturbs the nominal workload while the engine replays it:
// fault injection (internal/faults) plugs in here to model feed outages,
// volume bursts, CPU slowdowns and arrival stalls without rewriting the
// trace. Implementations must be pure functions of their arguments (plus
// internal tallies) so disturbed runs stay bitwise-reproducible.
type Disturbance interface {
	// ScaleExec returns the multiplicative execution-demand inflation
	// (> 0; 1 means none) for a transaction presented at time t.
	ScaleExec(t float64) float64
	// BlockFeed reports whether item's source update arriving at t is lost
	// before reaching the system. The source keeps its cadence — only the
	// delivery disappears — so a blocked arrival still ages the stored
	// copy by one lag unit.
	BlockFeed(item int, t float64) bool
	// FeedRate returns the arrival-rate multiplier (> 0) of item's feed at
	// t; the feed's next arrival lands period/rate later.
	FeedRate(item int, t float64) float64
	// ReleaseQuery returns the time (>= t) at which a query nominally
	// arriving at t is presented to the system.
	ReleaseQuery(t float64) float64
}

// QueryDisturbance is an optional Disturbance extension modelling client
// behaviour: slow result consumers and mid-flight disconnects. The engine
// type-asserts for it once at construction, so a Disturbance that does not
// implement it runs bitwise-unchanged.
type QueryDisturbance interface {
	// ScaleQueryExec returns an extra execution-demand inflation (> 0;
	// 1 means none) applied only to queries presented at time t — a slow
	// consumer draining its result holds the worker serving it.
	ScaleQueryExec(t float64) float64
	// DisconnectAfter returns how long after presentation at time t a
	// query keeps its client. 0 means the client waits forever; d > 0
	// means the query is abandoned at presentation+d if still unresolved
	// — it then never produces an outcome and never enters the USM,
	// mirroring the live server's canceled-request path.
	DisconnectAfter(t float64) float64
}

// Config parameterizes a run.
type Config struct {
	Workload *workload.Workload
	Weights  usm.Weights
	Seed     uint64
	// PhaseUpdates randomizes the first arrival of each update feed within
	// one period, avoiding synchronized update storms (default true via
	// NewConfig; zero value means aligned starts).
	PhaseUpdates bool
	// Disturbance injects deterministic faults into the replay; nil runs
	// the workload undisturbed.
	Disturbance Disturbance
	// Trace, when non-nil, records the query lifecycle (arrive →
	// admit/reject → queue → execute → outcome) and the policy's
	// controller decisions, stamped with virtual time. The recorder is
	// write-only from the engine's point of view — it feeds nothing back —
	// so a nil recorder leaves a run bitwise-unchanged and same-seed runs
	// record identical streams (both regression-tested in trace_test.go).
	Trace *trace.Recorder
}

// NewConfig returns a config with the recommended defaults.
func NewConfig(w *workload.Workload, weights usm.Weights, seed uint64) Config {
	return Config{Workload: w, Weights: weights, Seed: seed, PhaseUpdates: true}
}

// Engine runs one simulation.
//
// Concurrency: an Engine is single-goroutine by design — every field is
// owned by the event loop inside Run, so there is deliberately no mutex
// and no "guarded by" annotations here (locksafe and guardedflow have
// nothing to check). None of the fields may be touched from a spawned
// goroutine or an HTTP handler; the engine tests under
// `go test -race ./internal/engine` (TestDeterminism and
// TestHPAbortAndRestart among them) report a DATA RACE if one is, and
// determinism_test pins the absence of shared-state effects by
// replaying runs bit-for-bit. The live counterpart with real goroutines
// is internal/server, where the same lifecycle runs under Server.mu.
type Engine struct {
	cfg    Config
	sim    *eventsim.Sim
	store  *datastore.Store
	locks  *lockmgr.Manager
	ready  *readyq.Queue
	acct   *usm.ClassAccountant
	policy Policy
	rng    *stats.RNG

	// Each recurring event source owns one Event, re-armed where a fresh
	// At would run, so the schedule order is unchanged and the steady
	// state allocates no event or closure.
	running   *txn.Txn
	runEvent  *eventsim.Event // owned by Run; the running transaction's completion
	runStart  float64
	tick      *eventsim.Event // owned by Run; the control tick, re-armed every period
	arrival   *eventsim.Event // owned by Run; the query arrival stream
	nextQuery int             // owned by Run; index of the query the arrival event presents next
	// freeTimers pools deadline timers; an armed one hangs on its
	// query's Owner until the query resolves or is abandoned.
	freeTimers []*deadlineTimer
	timers     int // owned by Run; deadline timers allocated
	// txns is the unused tail of the current transaction block. Blocks
	// are never recycled, so every *txn.Txn of a run is distinct and
	// outcome hooks, the trace and stages may key by pointer.
	txns []txn.Txn
	// itemIDs[i] == i. An update's Items is the capacity-capped window
	// itemIDs[i:i+1:i+1], so no update allocates its one-item set.
	itemIDs []int

	pendingUpdate []*txn.Txn               // owned by Run; latest enqueued-but-unapplied update per item
	feedExec      []float64                // owned by Run; update execution time per item (for refreshes), 0 without a feed
	stages        map[*txn.Txn]*stageState // owned by Run; per-query latency attribution, nil when tracing is off
	nextID        int64

	busyQuery  float64
	busyUpdate float64

	preemptions       int
	restarts          int
	updatesApplied    int
	updatesDropped    int
	updatesSuperseded int
	refreshesIssued   int
	updatesLost       int // owned by Run; feed deliveries blocked by a disturbance
	queriesStalled    int // owned by Run; query arrivals delayed by a disturbance
	queriesAbandoned  int // owned by Run; admitted queries whose client disconnected mid-flight

	// qd is cfg.Disturbance's optional client-behaviour extension,
	// type-asserted once in New (nil when absent or unimplemented).
	qd QueryDisturbance

	freshSum   float64
	latencySum float64
	committed  int

	finished bool
}

// New builds an engine for one run. It validates the workload and weights.
func New(cfg Config, policy Policy) (*Engine, error) {
	if cfg.Workload == nil {
		return nil, fmt.Errorf("engine: nil workload")
	}
	if err := cfg.Workload.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Weights.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:           cfg,
		sim:           eventsim.New(),
		store:         datastore.New(cfg.Workload.NumItems),
		locks:         lockmgr.New(),
		ready:         readyq.New(),
		acct:          usm.NewClassAccountant(cfg.Weights, cfg.Workload.Preferences),
		policy:        policy,
		rng:           stats.NewRNG(cfg.Seed),
		pendingUpdate: make([]*txn.Txn, cfg.Workload.NumItems),
		feedExec:      make([]float64, cfg.Workload.NumItems),
	}
	e.runEvent = e.sim.NewEvent(func() { e.complete(e.running) })
	e.itemIDs = make([]int, cfg.Workload.NumItems)
	for i := range e.itemIDs {
		e.itemIDs[i] = i
	}
	for _, u := range cfg.Workload.Updates {
		e.feedExec[u.Item] = u.Exec
	}
	if cfg.Trace != nil {
		// Stage accounting exists only when someone can observe it; a nil
		// recorder keeps the run bitwise-identical to pre-tracing behavior.
		e.stages = make(map[*txn.Txn]*stageState)
	}
	if qd, ok := cfg.Disturbance.(QueryDisturbance); ok {
		e.qd = qd
	}
	policy.Attach(e)
	return e, nil
}

// --- accessors used by policies and admission control ---

// Now returns the current virtual time.
func (e *Engine) Now() float64 { return e.sim.Now() }

// Store returns the datastore.
func (e *Engine) Store() *datastore.Store { return e.store }

// Accountant returns the USM accountant (per-preference-class aware).
func (e *Engine) Accountant() *usm.ClassAccountant { return e.acct }

// TraceRecorder returns the run's trace recorder, nil when tracing is
// off. Policies log their controller decisions into it.
func (e *Engine) TraceRecorder() *trace.Recorder { return e.cfg.Trace }

// record emits one span event when tracing is on.
func (e *Engine) record(ev trace.Event) {
	if e.cfg.Trace != nil {
		e.cfg.Trace.Record(ev)
	}
}

// WeightsFor resolves a transaction's effective USM weights: its
// preference class's weights when the workload defines classes, the run's
// system-wide weights otherwise.
func (e *Engine) WeightsFor(t *txn.Txn) usm.Weights {
	return e.acct.WeightsFor(t.PrefClass)
}

// Workload returns the run's workload.
func (e *Engine) Workload() *workload.Workload { return e.cfg.Workload }

// RunningRemaining returns the remaining service demand of the running
// transaction (0 when the CPU is idle). With UpdateBacklog it is the work
// dispatched ahead of every queued query — admission's starting EST.
func (e *Engine) RunningRemaining() float64 {
	if e.running == nil {
		return 0
	}
	return e.runEvent.Time() - e.sim.Now()
}

// UpdateBacklog returns the summed remaining demand of queued updates.
func (e *Engine) UpdateBacklog() float64 { return e.ready.UpdateBacklog() }

// QueuedQueries returns the query class of the ready queue in dispatch
// (EDF) order, for admission control to walk in place. The slice is the
// queue's own storage: read-only, valid until the engine next runs.
func (e *Engine) QueuedQueries() []*txn.Txn { return e.ready.EDFQueries() }

// BusyTime returns the cumulative CPU time consumed so far by queries and
// by updates. Feedback controllers difference it across windows to measure
// utilization.
func (e *Engine) BusyTime() (query, update float64) {
	q, u := e.busyQuery, e.busyUpdate
	if e.running != nil {
		// Attribute the in-progress slice of the running transaction.
		elapsed := e.sim.Now() - e.runStart
		if e.running.Class == txn.ClassUpdate {
			u += elapsed
		} else {
			q += elapsed
		}
	}
	return q, u
}

// PendingUpdateFor returns the enqueued-but-unapplied update transaction
// for item, or nil.
func (e *Engine) PendingUpdateFor(item int) *txn.Txn { return e.pendingUpdate[item] }

// FeedExec returns the update execution time of item's feed; ok is false
// when the item has no update feed.
func (e *Engine) FeedExec(item int) (float64, bool) {
	v := e.feedExec[item]
	return v, v > 0 // Workload.Validate requires a feed's Exec > 0
}

// EnqueueRefresh creates and enqueues an on-demand update transaction for
// item with the given execution time and EDF deadline (ODU's mechanism).
func (e *Engine) EnqueueRefresh(item int, exec, deadline float64) *txn.Txn {
	u := e.newUpdate(e.sim.Now(), item, exec, deadline)
	e.pendingUpdate[item] = u
	e.ready.Push(u)
	e.refreshesIssued++
	return u
}

// --- run ---

// Run executes the whole workload and returns the results. It can only be
// called once per engine.
func (e *Engine) Run() (*Results, error) {
	if e.finished {
		return nil, fmt.Errorf("engine: Run called twice")
	}
	e.finished = true
	w := e.cfg.Workload
	if len(w.Queries) > 0 {
		e.arrival = e.sim.NewEvent(e.queryArrival)
		e.sim.Rearm(e.arrival, w.Queries[0].Arrival)
	}
	phaseRNG := e.rng.Split()
	feeds := make([]feed, len(w.Updates))
	for i := range w.Updates {
		f := &feeds[i]
		f.spec = w.Updates[i]
		start := f.spec.Period
		if e.cfg.PhaseUpdates {
			start = f.spec.Period * phaseRNG.Float64()
		}
		if start <= w.Duration {
			f.ev = e.sim.NewEvent(func() { e.updateArrival(f) })
			e.sim.Rearm(f.ev, start)
		}
	}
	if p := e.policy.ControlPeriod(); p > 0 {
		e.tick = e.sim.At(p, func() { e.controlTick(p) })
	}
	// Run the scheduled horizon, then drain in-flight work (no new
	// arrivals are scheduled past the duration).
	e.sim.Run(w.Duration)
	e.sim.RunAll()
	return e.results(), nil
}

// controlTick runs the policy's tick, then re-arms the tick event. The
// re-arm comes after OnControlTick returns, so the next tick takes its
// schedule order after everything the policy scheduled, as a fresh At
// there would.
func (e *Engine) controlTick(period float64) {
	e.policy.OnControlTick()
	next := e.sim.Now() + period
	if next <= e.cfg.Workload.Duration {
		e.sim.Rearm(e.tick, next)
	}
}

// --- arrivals ---

// feed is one periodic update source and the one event that re-arms it.
type feed struct {
	spec workload.UpdateSpec
	ev   *eventsim.Event
}

func (e *Engine) queryArrival() {
	w := e.cfg.Workload
	idx := e.nextQuery
	e.nextQuery++
	spec := w.Queries[idx]
	if idx+1 < len(w.Queries) {
		e.sim.Rearm(e.arrival, w.Queries[idx+1].Arrival)
	}
	if d := e.cfg.Disturbance; d != nil {
		if release := d.ReleaseQuery(e.sim.Now()); release > e.sim.Now() {
			// Arrival stall: hold the query and present it at the window
			// end. Stalled queries are scheduled in nominal arrival order,
			// so the release burst replays them in that order (eventsim
			// tie-breaks same-instant events by schedule order).
			e.queriesStalled++
			e.sim.At(release, func() { e.presentQuery(spec) })
			return
		}
	}
	e.presentQuery(spec)
}

// presentQuery hands one query spec to admission and the ready queue at
// the current instant — its nominal arrival, or a stall's release time.
// The deadline anchors at presentation (the system clocks a query from
// when it first sees it); a CPU slowdown inflates the actual demand while
// the optimizer's estimate stays nominal.
//
//unitlint:outcome q
func (e *Engine) presentQuery(spec workload.QuerySpec) {
	e.nextID++
	exec := spec.Exec
	if d := e.cfg.Disturbance; d != nil {
		exec *= d.ScaleExec(e.sim.Now())
	}
	if e.qd != nil {
		exec *= e.qd.ScaleQueryExec(e.sim.Now())
	}
	q := e.newTxn()
	q.InitQuery(e.nextID, e.sim.Now(), spec.Items, exec, spec.RelDeadline, spec.FreshReq)
	q.EstExec = spec.EstExec
	q.PrefClass = spec.PrefClass
	q.GatherID = spec.GatherID
	e.record(trace.Event{T: e.sim.Now(), Kind: trace.KindArrive, Query: q.ID, Items: len(q.Items), Deadline: q.Deadline})
	if !e.policy.AdmitQuery(q) {
		e.record(trace.Event{T: e.sim.Now(), Kind: trace.KindReject, Query: q.ID})
		e.finalizeQuery(q, txn.OutcomeRejected)
		return
	}
	e.record(trace.Event{T: e.sim.Now(), Kind: trace.KindAdmit, Query: q.ID})
	e.armDeadline(q)
	e.ready.Push(q)
	e.record(trace.Event{T: e.sim.Now(), Kind: trace.KindQueue, Query: q.ID})
	e.stageTransition(q, stQueued)
	if e.qd != nil {
		if after := e.qd.DisconnectAfter(e.sim.Now()); after > 0 {
			e.sim.At(e.sim.Now()+after, func() { e.abandonQuery(q) })
		}
	}
	e.dispatch()
}

// txnBlock is how many transactions one block holds: 128 of them stay
// under 32 KiB, above which the runtime takes its slower large-object
// path.
const txnBlock = 128

// newTxn returns the next unused transaction of the current block,
// starting a new block when it is spent.
func (e *Engine) newTxn() *txn.Txn {
	if len(e.txns) == 0 {
		e.txns = make([]txn.Txn, txnBlock)
	}
	t := &e.txns[0]
	e.txns = e.txns[1:]
	return t
}

// newUpdate builds the next update transaction for item.
func (e *Engine) newUpdate(arrival float64, item int, exec, deadline float64) *txn.Txn {
	e.nextID++
	u := e.newTxn()
	u.InitUpdate(e.nextID, arrival, e.itemIDs[item:item+1:item+1], exec, deadline)
	return u
}

func (e *Engine) updateArrival(f *feed) {
	spec := f.spec
	now := e.sim.Now()
	d := e.cfg.Disturbance
	gap := spec.Period
	if d != nil {
		if rate := d.FeedRate(spec.Item, now); rate > 0 {
			gap = spec.Period / rate
		}
	}
	if next := now + gap; next <= e.cfg.Workload.Duration {
		e.sim.Rearm(f.ev, next)
	}
	if d != nil && d.BlockFeed(spec.Item, now) {
		// Lost in transit: the source emitted a refresh the system never
		// saw, so the stored copy is one lag unit staler. Policies get no
		// OnSourceUpdate — from the system's view the feed just went quiet.
		e.store.DropUpdate(spec.Item)
		e.updatesLost++
		return
	}
	exec := spec.Exec
	if d != nil {
		exec *= d.ScaleExec(now)
	}
	e.policy.OnSourceUpdate(spec.Item, exec)
	if !e.policy.AdmitUpdate(spec.Item) {
		e.store.DropUpdate(spec.Item)
		e.updatesDropped++
		return
	}
	// Supersede a stale enqueued (or lock-blocked) update for the same
	// item: a periodic feed is full-value, so only the newest matters.
	if old := e.pendingUpdate[spec.Item]; old != nil && old != e.running {
		if !e.ready.Remove(old) {
			// Blocked on a lock: withdraw it, waking whoever it unblocks.
			res := e.locks.ReleaseAll(old)
			e.absorbLockResult(res, nil)
		}
		e.store.DropUpdate(spec.Item)
		e.updatesSuperseded++
		e.updatesDropped++
	}
	u := e.newUpdate(now, spec.Item, exec, now+gap)
	e.pendingUpdate[spec.Item] = u
	e.ready.Push(u)
	e.dispatch()
}

// --- dispatching ---

// dispatch advances the CPU: it preempts when something outranks the
// running transaction and starts the highest-priority runnable one,
// resolving locks on the way. Queries postponed by the policy are parked
// for this pass so prerequisite updates can overtake them, and requeued
// once it ends.
func (e *Engine) dispatch() {
	var postponed []*txn.Txn
	for {
		next := e.ready.Peek()
		if next == nil {
			break
		}
		if e.running != nil {
			if !next.HigherPriority(e.running) {
				break
			}
			e.preempt()
		}
		t := e.ready.Pop()
		if t.Class == txn.ClassQuery && !e.policy.BeforeQueryDispatch(t) {
			postponed = append(postponed, t)
			continue
		}
		res := e.locks.AcquireAll(t)
		e.absorbLockResult(res, t)
		if res.Granted {
			e.start(t)
		} else if t.Class == txn.ClassQuery {
			// Parked as a lock waiter; its clock now accrues lock wait.
			e.record(trace.Event{T: e.sim.Now(), Kind: trace.KindBlock, Query: t.ID})
			e.stageTransition(t, stBlocked)
		}
		// Not granted: t is parked as a lock waiter; pick the next one.
	}
	for _, q := range postponed {
		// While parked here the query can re-enter the queue through an
		// HP-abort restart, or be finalized by its deadline — only put
		// back what is still pending and outside the queue.
		if q.Outcome == txn.OutcomePending && !e.ready.Contains(q) && q != e.running {
			e.ready.Push(q)
		}
	}
}

// absorbLockResult restarts or kills HP-abort victims and requeues
// transactions whose lock waits completed. self is the transaction whose
// operation produced the result (never requeued here), or nil.
func (e *Engine) absorbLockResult(res lockmgr.Result, self *txn.Txn) {
	for _, v := range res.Aborted {
		e.handleAbort(v)
	}
	for _, u := range res.Unblocked {
		if u != self && !e.ready.Contains(u) {
			e.ready.Push(u)
			e.stageTransition(u, stQueued) // lock wait over (no-op for updates)
		}
	}
}

// handleAbort processes a 2PL-HP victim: its locks are already gone; put it
// back in contention (restart) when that still makes sense, otherwise
// finalize it.
func (e *Engine) handleAbort(v *txn.Txn) {
	if v == e.running {
		// Defensive: dispatch preempts before lock requests, so the
		// running transaction should never be a victim.
		e.stopRunningClock()
	} else {
		e.ready.Remove(v) // no-op when v was lock-blocked
	}
	if v.Class == txn.ClassUpdate {
		e.restartAbortedUpdate(v)
		return
	}
	e.resolveAbortedQuery(v)
}

// restartAbortedUpdate puts an aborted update back in contention, unless
// a newer update superseded it while it waited — then it is discarded
// (the supersede already accounted the drop).
func (e *Engine) restartAbortedUpdate(u *txn.Txn) {
	if e.pendingUpdate[u.Item()] != u {
		return
	}
	u.ResetForRestart()
	e.restarts++
	e.ready.Push(u)
}

// resolveAbortedQuery restarts an aborted query while its deadline is
// still reachable, and finalizes it DMF when it is not.
//
//unitlint:outcome v
func (e *Engine) resolveAbortedQuery(v *txn.Txn) {
	if e.sim.Now()+v.Exec >= v.Deadline {
		// It cannot finish even if it restarts immediately.
		e.finalizeQuery(v, txn.OutcomeDMF)
		return
	}
	v.ResetForRestart()
	e.restarts++
	e.record(trace.Event{T: e.sim.Now(), Kind: trace.KindRestart, Query: v.ID})
	e.stageRestart(v) // the aborted attempt's CPU time becomes overhead
	e.ready.Push(v)
}

func (e *Engine) start(t *txn.Txn) {
	if t.Class == txn.ClassQuery {
		e.record(trace.Event{T: e.sim.Now(), Kind: trace.KindExecute, Query: t.ID, Wait: e.sim.Now() - t.Arrival})
		e.stageTransition(t, stRunning)
	}
	if t.Class == txn.ClassQuery && !t.ReadSampled() {
		// The query reads its items as it begins executing; the DSF check
		// at commit judges the freshness of what was actually read. The
		// S locks held from here guarantee no conflicting update commits
		// underneath the sample.
		t.ReadFreshness = e.store.QueryFreshness(t.Items)
		t.MarkReadSampled()
	}
	e.running = t
	e.runStart = e.sim.Now()
	e.sim.Rearm(e.runEvent, e.runStart+t.Remaining)
}

func (e *Engine) preempt() {
	t := e.running
	e.stopRunningClock()
	e.preemptions++
	if t.Class == txn.ClassQuery {
		// Progress is kept, so no work is discarded: the preemption's cost
		// surfaces as the extra queue wait accrued until the resume.
		e.record(trace.Event{T: e.sim.Now(), Kind: trace.KindPreempt, Query: t.ID})
		e.stageTransition(t, stQueued)
	}
	e.ready.Push(t) // keeps its locks; will resume with Remaining left
}

// stopRunningClock halts the running transaction's service, accounting the
// CPU it consumed, and leaves the CPU free.
func (e *Engine) stopRunningClock() {
	t := e.running
	if t == nil {
		return
	}
	elapsed := e.sim.Now() - e.runStart
	t.Remaining -= elapsed
	if t.Remaining < 0 {
		t.Remaining = 0
	}
	e.accountBusy(t.Class, elapsed)
	e.sim.Cancel(e.runEvent)
	e.running = nil
}

func (e *Engine) accountBusy(c txn.Class, dt float64) {
	if c == txn.ClassUpdate {
		e.busyUpdate += dt
	} else {
		e.busyQuery += dt
	}
}

// --- completion and deadlines ---

// complete retires the running transaction's CPU accounting and routes
// to the per-class completion path.
func (e *Engine) complete(t *txn.Txn) {
	elapsed := e.sim.Now() - e.runStart
	e.accountBusy(t.Class, elapsed)
	t.Remaining = 0
	e.running = nil
	if t.Class == txn.ClassUpdate {
		e.completeUpdate(t)
		return
	}
	e.completeQuery(t)
}

// completeUpdate installs a finished update into the store and retires
// its pending-update slot.
func (e *Engine) completeUpdate(u *txn.Txn) {
	item := u.Item()
	e.store.ApplyUpdate(item, e.sim.Now(), e.sim.Now())
	e.updatesApplied++
	if e.pendingUpdate[item] == u {
		e.pendingUpdate[item] = nil
	}
	e.policy.OnUpdateApplied(u)
	res := e.locks.ReleaseAll(u)
	e.absorbLockResult(res, u)
	e.dispatch()
}

// completeQuery commits a finished query: the freshness of what it read
// (sampled at the start of its last attempt) against its requirement
// (Eq. 1) decides success vs DSF.
//
//unitlint:outcome q
func (e *Engine) completeQuery(q *txn.Txn) {
	fresh := q.ReadFreshness
	for _, item := range q.Items {
		e.store.RecordAccess(item)
	}
	e.freshSum += fresh
	e.latencySum += e.sim.Now() - q.Arrival
	e.committed++
	res := e.locks.ReleaseAll(q)
	e.absorbLockResult(res, q)
	outcome := txn.OutcomeSuccess
	if fresh < q.FreshReq {
		outcome = txn.OutcomeDSF
	}
	e.finalizeQuery(q, outcome)
	e.dispatch()
}

// deadlineTimer is a pooled deadline event and the query it is armed
// for; an armed timer hangs on q.Owner.
type deadlineTimer struct {
	ev *eventsim.Event
	q  *txn.Txn
}

// armDeadline schedules q's firm deadline on a timer from the pool.
func (e *Engine) armDeadline(q *txn.Txn) {
	var dt *deadlineTimer
	if n := len(e.freeTimers); n > 0 {
		dt = e.freeTimers[n-1]
		e.freeTimers = e.freeTimers[:n-1]
	} else {
		dt = &deadlineTimer{}
		dt.ev = e.sim.NewEvent(func() { e.queryDeadline(dt.q) })
		e.timers++
	}
	dt.q = q
	q.Owner = dt
	e.sim.Rearm(dt.ev, q.Deadline)
}

// disarmDeadline cancels q's deadline timer and returns it to the pool.
// It reports false when q holds none (never admitted, or already
// disarmed).
func (e *Engine) disarmDeadline(q *txn.Txn) bool {
	dt, ok := q.Owner.(*deadlineTimer)
	if !ok {
		return false
	}
	e.sim.Cancel(dt.ev)
	q.Owner, dt.q = nil, nil
	e.freeTimers = append(e.freeTimers, dt)
	return true
}

// queryDeadline fires at a query's absolute deadline: whatever is still
// pending at that instant misses (DMF), wherever it sits — running,
// queued, or lock-blocked. Resolving or abandoning a query disarms its
// timer, so a timer never fires for a resolved query; one that did would
// already be back in the pool, possibly armed for another query.
//
//unitlint:outcome q
func (e *Engine) queryDeadline(q *txn.Txn) {
	if q.Outcome != txn.OutcomePending {
		panic(fmt.Sprintf("engine: deadline fired for resolved %v", q))
	}
	e.disarmDeadline(q)
	if q == e.running {
		e.stopRunningClock()
	} else {
		e.ready.Remove(q) // no-op when lock-blocked
	}
	res := e.locks.ReleaseAll(q)
	e.absorbLockResult(res, q)
	e.finalizeQuery(q, txn.OutcomeDMF)
	e.dispatch()
}

// abandonQuery fires when a query's client disconnects mid-flight
// (QueryDisturbance.DisconnectAfter): if the query is still unresolved it
// is withdrawn from wherever it sits — running, queued, or lock-blocked —
// and its deadline canceled. Nobody is listening for the answer, so the
// query produces no outcome and never enters the USM; only the abandoned
// tally records it (the same contract as the live server's canceled path).
func (e *Engine) abandonQuery(q *txn.Txn) {
	if q.Outcome != txn.OutcomePending {
		return // resolved before the client gave up
	}
	if !e.disarmDeadline(q) {
		return // already abandoned by an earlier disconnect window
	}
	if q == e.running {
		e.stopRunningClock()
	} else {
		e.ready.Remove(q) // no-op when lock-blocked
	}
	res := e.locks.ReleaseAll(q)
	e.absorbLockResult(res, q)
	e.queriesAbandoned++
	e.record(trace.Event{T: e.sim.Now(), Kind: trace.KindOutcome, Query: q.ID, Outcome: "abandoned", Stages: e.stageFinalize(q)})
	e.dispatch()
}

// finalizeQuery records a query's terminal outcome — the single point
// where the USM conservation law (every admitted query ends in exactly
// one of success/rejected/DMF/DSF) is enforced at run time.
//
//unitlint:outcome q
func (e *Engine) finalizeQuery(q *txn.Txn, o txn.Outcome) {
	if q.Outcome != txn.OutcomePending {
		panic(fmt.Sprintf("engine: double finalize of %v", q))
	}
	q.Outcome = o
	e.disarmDeadline(q)
	e.record(trace.Event{T: e.sim.Now(), Kind: trace.KindOutcome, Query: q.ID, Outcome: o.String(), Fresh: q.ReadFreshness, Stages: e.stageFinalize(q)})
	e.acct.Record(o, q.PrefClass)
	e.policy.OnQueryDone(q)
}

// --- results ---

// Results summarizes one run.
type Results struct {
	Policy   string
	Trace    string
	Weights  usm.Weights
	Counts   usm.Counts
	USM      float64
	Duration float64

	SuccessRatio   float64
	RejectionRatio float64
	DMFRatio       float64
	DSFRatio       float64

	AvgFreshness float64 // over committed queries
	AvgLatency   float64 // over committed queries

	UpdatesApplied    int
	UpdatesDropped    int
	UpdatesSuperseded int
	RefreshesIssued   int

	// UpdatesLost counts feed deliveries a disturbance blocked before they
	// reached the system; QueriesStalled counts query arrivals a
	// disturbance delayed; QueriesAbandoned counts admitted queries whose
	// client disconnected before resolution (they produce no outcome and
	// are excluded from Counts — conservation holds as
	// Counts.Total() + QueriesAbandoned == queries presented). All are
	// zero in undisturbed runs.
	UpdatesLost      int
	QueriesStalled   int
	QueriesAbandoned int

	HPAborts    int
	Preemptions int
	Restarts    int

	CPUUtilization float64
	QueryCPU       float64
	UpdateCPU      float64

	AccessCounts  []int
	AppliedCounts []int
	DroppedCounts []int

	// PerClass breaks the outcomes down by user-preference class (empty
	// for uniform-preference runs). ClassUSM applies each class's own
	// weights to its own outcomes.
	PerClass []ClassResult

	Events int64
}

// ClassResult is one preference class's slice of the outcomes.
type ClassResult struct {
	Weights  usm.Weights
	Counts   usm.Counts
	ClassUSM float64
}

func (e *Engine) results() *Results {
	tally := e.acct.Total()
	counts := tally.Counts
	rs, rr, rfm, rfs := counts.Ratios()
	r := &Results{
		Policy:            e.policy.Name(),
		Trace:             e.cfg.Workload.Name,
		Weights:           e.cfg.Weights,
		Counts:            counts,
		USM:               tally.USM(),
		Duration:          e.cfg.Workload.Duration,
		SuccessRatio:      rs,
		RejectionRatio:    rr,
		DMFRatio:          rfm,
		DSFRatio:          rfs,
		UpdatesApplied:    e.updatesApplied,
		UpdatesDropped:    e.updatesDropped,
		UpdatesSuperseded: e.updatesSuperseded,
		RefreshesIssued:   e.refreshesIssued,
		UpdatesLost:       e.updatesLost,
		QueriesStalled:    e.queriesStalled,
		QueriesAbandoned:  e.queriesAbandoned,
		HPAborts:          e.locks.HPAborts(),
		Preemptions:       e.preemptions,
		Restarts:          e.restarts,
		CPUUtilization:    (e.busyQuery + e.busyUpdate) / e.cfg.Workload.Duration,
		QueryCPU:          e.busyQuery / e.cfg.Workload.Duration,
		UpdateCPU:         e.busyUpdate / e.cfg.Workload.Duration,
		AccessCounts:      e.store.AccessCounts(),
		AppliedCounts:     e.store.AppliedCounts(),
		DroppedCounts:     e.store.DroppedCounts(),
		Events:            e.sim.Fired(),
	}
	if e.committed > 0 {
		r.AvgFreshness = e.freshSum / float64(e.committed)
		r.AvgLatency = e.latencySum / float64(e.committed)
	}
	classes := e.acct.Classes()
	perClass := e.acct.PerClass()
	for i := range classes {
		r.PerClass = append(r.PerClass, ClassResult{
			Weights:  classes[i],
			Counts:   perClass[i],
			ClassUSM: perClass[i].USM(classes[i]),
		})
	}
	return r
}

// String renders the headline numbers of a result.
func (r *Results) String() string {
	return fmt.Sprintf("%s on %s: USM=%.4f success=%.3f rej=%.3f dmf=%.3f dsf=%.3f (n=%d)",
		r.Policy, r.Trace, r.USM, r.SuccessRatio, r.RejectionRatio, r.DMFRatio, r.DSFRatio, r.Counts.Total())
}
