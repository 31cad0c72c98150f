// Package server runs the UNIT framework on a wall clock instead of the
// simulator: a concurrent in-memory web-database fronted by HTTP. Queries
// arrive with firm deadlines and freshness requirements and pass UNIT's
// admission control before an EDF worker pool executes them; update-feed
// writes pass through update frequency modulation, which may drop them to
// protect query timeliness; the Load Balancing Controller re-balances both
// knobs from the windowed User Satisfaction Metric.
//
// The server exists to demonstrate the algorithm core (core.Kernel, the
// control kernel the simulator drives too) against real concurrency. Query
// and update "work" is carried as an explicit duration parameter, standing
// in for the computation a production deployment would run.
package server

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"unitdb/internal/core"
	"unitdb/internal/core/admission"
	"unitdb/internal/core/usm"
	"unitdb/internal/datastore"
	"unitdb/internal/obs/metrics"
	"unitdb/internal/obs/trace"
	"unitdb/internal/readyq"
	"unitdb/internal/stats"
	"unitdb/internal/txn"
)

// Config parameterizes a live server.
type Config struct {
	// NumItems is the size of the data set.
	NumItems int
	// Weights are the USM penalties driving admission and control.
	Weights usm.Weights
	// Workers is the size of the query-execution pool.
	Workers int
	// ControlPeriod is the LBC tick (wall clock).
	ControlPeriod time.Duration
	// GracePeriod bounds the time between allocation decisions.
	GracePeriod time.Duration
	// MinDecisionSamples gates decisions on window size, as in the
	// simulator policy.
	MinDecisionSamples int
	// MaxQueue bounds the ready queue; arrivals beyond it are rejected
	// outright (an overload backstop, not part of the paper's algorithm).
	MaxQueue int
	// DefaultFreshness applies when a query does not state a requirement.
	DefaultFreshness float64
	// Seed drives the lottery.
	Seed uint64
	// QueryWork performs a query's computation; nil sleeps for the
	// request's Work duration. Embedders substitute real computation, and
	// chaos tests substitute panics and stalls.
	QueryWork func(QueryRequest)
	// UpdateWork performs an update refresh's computation; nil sleeps for
	// the request's Work duration.
	UpdateWork func(UpdateRequest)
	// Trace, when non-nil, replaces the internal span-event recorder (a
	// ring of trace.DefaultEventCap events) so a harness can capture the
	// query lifecycle into a ring of its own size (and dump it as an
	// artifact). The recorder is write-only from the server's point of
	// view.
	Trace *trace.Recorder

	// Sharding internals, set by NewSharded (never by users): the shared
	// metrics registry, the per-shard labels appended to every series
	// this server registers, and the offset of the server-assigned query
	// ids (the first query gets firstID+1), which gives each shard a
	// disjoint id band so a query id names its shard globally.
	obsRegistry *metrics.Registry
	obsLabels   []metrics.Label
	firstID     int64
}

// DefaultConfig returns a small live-server configuration.
func DefaultConfig() Config {
	return Config{
		NumItems:           1024,
		Workers:            4,
		ControlPeriod:      250 * time.Millisecond,
		GracePeriod:        time.Second,
		MinDecisionSamples: 20,
		MaxQueue:           4096,
		DefaultFreshness:   0.9,
		Seed:               1,
	}
}

// Outcome is the fate of a live query, mirroring txn.Outcome.
type Outcome string

// Live query outcomes.
const (
	OutcomeSuccess  Outcome = "success"
	OutcomeRejected Outcome = "rejected"
	OutcomeDMF      Outcome = "deadline-missed"
	OutcomeDSF      Outcome = "data-stale"
	// OutcomeCanceled marks a query abandoned because its client went away
	// (request context canceled). The user is no longer there to be
	// satisfied or disappointed, so cancellations are tallied separately
	// and never enter the USM.
	OutcomeCanceled Outcome = "canceled"
)

// QueryRequest is a user query presented to the live server.
type QueryRequest struct {
	Items     []int
	Deadline  time.Duration // firm relative deadline (qt)
	Work      time.Duration // execution cost the query carries (qe)
	Freshness float64       // required freshness (qf); 0 = server default
}

// QueryResponse is the outcome of a live query.
type QueryResponse struct {
	Outcome   Outcome            `json:"outcome"`
	Values    map[string]float64 `json:"values,omitempty"`
	Freshness float64            `json:"freshness"`
	Latency   time.Duration      `json:"latency_ns"`
	// Query is the server-assigned query id — the handle for following
	// the query through /debug/trace?query=<id> and the exemplar ids on
	// the stage histograms. Zero when the request never reached admission
	// (malformed items, server closed).
	Query int64 `json:"query,omitempty"`
	// Stages attributes the latency to pipeline stages (wall seconds).
	// Nil when the query never entered the queue.
	Stages *trace.StageBreakdown `json:"stages,omitempty"`
}

// UpdateRequest is an update-feed write.
type UpdateRequest struct {
	Item  int
	Value float64
	Work  time.Duration // cost of applying the refresh (ue)
}

// Stats is a snapshot of the server's accounting. It is a defensive deep
// copy: every nested value (counts, the signal map, the optional window)
// is copied or freshly built under the lock, so callers can hold or
// mutate a snapshot without racing the server — the contract the load
// tests and the JSON encoder both rely on.
type Stats struct {
	Counts         usm.Counts `json:"counts"`
	USM            float64    `json:"usm"`
	CFlex          float64    `json:"cflex"`
	DegradedItems  int        `json:"degraded_items"`
	UpdatesApplied int        `json:"updates_applied"`
	UpdatesDropped int        `json:"updates_dropped"`
	QueueLength    int        `json:"queue_length"`
	StaleItems     int        `json:"stale_items"`
	// RetryAfterSeconds is the backoff hint a rejected client would be
	// given right now (the 429 Retry-After estimate), surfaced in the
	// snapshot so load tests can assert on it without forcing a rejection.
	RetryAfterSeconds float64 `json:"retry_after_seconds"`
	// Resilience counters (PR 2): outcomes of the failure paths the
	// graceful-degradation machinery handles.
	QueriesShed     int `json:"queries_shed"`     // rejected by the MaxQueue backstop
	QueriesPanicked int `json:"queries_panicked"` // work panicked; recorded as DMF, worker survived
	QueriesCanceled int `json:"queries_canceled"` // client gone; abandoned before burning a worker
	QueriesDrained  int `json:"queries_drained"`  // queued at shutdown; resolved as rejections
	// LBCDecisions counts allocation decisions; LBCSignals breaks the
	// fired control signals down by name (deep-copied per snapshot).
	LBCDecisions int            `json:"lbc_decisions"`
	LBCSignals   map[string]int `json:"lbc_signals,omitempty"`
	// Window carries the windowed USM when the snapshot was taken with
	// StatsWindow (GET /stats?window=...); nil otherwise.
	Window *WindowStats `json:"window,omitempty"`
	// Shards carries each shard's own snapshot when the stats come from
	// the sharded front door (index = shard); nil on a plain server.
	Shards []Stats `json:"shards,omitempty"`
}

// WindowStats is the outcome tally and USM over a trailing wall-clock
// window. Seconds is the requested horizon; Covered is the horizon the
// retained history actually spans (smaller when the ring truncated).
type WindowStats struct {
	Seconds float64    `json:"seconds"`
	Covered float64    `json:"covered_seconds"`
	Counts  usm.Counts `json:"counts"`
	USM     float64    `json:"usm"`
}

// liveQuery is the per-request state of an admitted query, one heap
// object: it embeds the queued transaction, whose Owner points back at it
// so a transaction popped from the ready queue finds its request, and the
// stage breakdown that its response and outcome event share.
type liveQuery struct {
	tx     txn.Txn
	stages trace.StageBreakdown
	req    QueryRequest
	ctx    context.Context
	done   chan QueryResponse // from doneChans; its one send is the verdict

	// Wall-time stage stamps (seconds since server start), for the
	// StageBreakdown finalized with the outcome. Both are written and read
	// under Server.mu. execStart zero means no worker ever ran the query.
	enqueuedAt float64 // guarded by mu
	execStart  float64 // guarded by mu
}

// stagesLocked computes the query's wall-time stage attribution at
// finalize instant now; the caller holds Server.mu. The live server has
// no lock manager and never restarts an attempt, so only QueueWait and
// Exec can be nonzero: queue wait runs from enqueue to the worker pickup
// (or to finalization, for queries resolved while still queued), exec
// from pickup to finalization. It is called once, at finalization.
func (q *liveQuery) stagesLocked(now float64) *trace.StageBreakdown {
	b := &q.stages
	if q.execStart > 0 {
		b.QueueWait = q.execStart - q.enqueuedAt
		b.Exec = now - q.execStart
	} else {
		b.QueueWait = now - q.enqueuedAt
	}
	b.Total = b.Sum()
	return b
}

// doneChans recycles the verdict channels of resolved queries. Each
// carries exactly one send, or none when a canceled query is unlinked
// before anyone resolves it, so a channel goes back empty once its
// caller has the verdict.
var doneChans = sync.Pool{New: func() any { return make(chan QueryResponse, 1) }}

// noStages is the all-zero breakdown of a query rejected at arrival
// (nothing accrued, mirroring the engine's breakdown for rejects), shared
// read-only by every such outcome event.
var noStages trace.StageBreakdown

// Server is the live web-database. Create with New, stop with Close.
//
// Locking: mu is the single coarse lock; every field annotated
// "guarded by mu" may only be touched while holding it (`go test -race`
// over the server tests checks the convention). cfg, start, cond,
// expiry, wg and stopCh are set in New before the Server escapes and are
// immutable or internally synchronized afterwards.
//
// Ownership: unlike Engine, no field here is owned by one goroutine —
// every piece of mutable state is deliberately shared between the
// worker pool, the control loop, and the HTTP handlers, so mutual
// exclusion (not single-goroutine ownership) is the discipline. That
// split is the point: the simulator proves the algorithms
// single-threaded, the live server reuses them under one lock.
type Server struct {
	cfg   Config    // immutable after New
	start time.Time // immutable after New

	mu   sync.Mutex
	cond *sync.Cond // signals queue growth; always waited on under mu

	// The algorithm cores are single-threaded objects; mu serializes
	// every call into them.
	store *datastore.Store     // guarded by mu
	kern  *core.Kernel         // guarded by mu
	acct  *usm.ClassAccountant // guarded by mu

	queue   *readyq.Queue // guarded by mu; queries only (updates apply inline)
	backlog float64       // guarded by mu; queued work, seconds
	running float64       // guarded by mu; in-flight work, seconds

	// One timer enforces every queued query's firm deadline (paper §3.1):
	// it is armed for the EDF head of queue, and expireLoop resolves what
	// is due when it fires. Executing queries get their verdict from the
	// worker. expiry is Reset and Stopped only under mu.
	expiry  *time.Timer
	armed   *liveQuery // guarded by mu; the query expiry was armed for, or nil
	armedAt float64    // guarded by mu; armed's deadline, +Inf when idle

	lastApplied  []time.Time  // guarded by mu
	lastArrival  []time.Time  // guarded by mu
	interArrival []stats.EWMA // guarded by mu

	updatesApplied int   // guarded by mu
	updatesDropped int   // guarded by mu
	nextID         int64 // guarded by mu

	// arrival is the transaction of the arrival under admission. A
	// rejected arrival is finalized here and allocates nothing; an
	// admitted one is copied into its liveQuery.
	arrival txn.Txn // guarded by mu

	shed     int // guarded by mu; rejected by the MaxQueue backstop
	panicked int // guarded by mu; query/update work that panicked
	canceled int // guarded by mu; abandoned after client disconnect
	drained  int // guarded by mu; queued queries rejected at shutdown

	// obs is the observability surface (metrics registry + trace
	// recorder); set in New, immutable afterwards, internally
	// synchronized — hot-path updates are atomics outside mu.
	obs *serverObs

	winLog  []outcomeStamp // guarded by mu; ring of recent finalized outcomes
	winNext int            // guarded by mu; next ring slot once full

	closed bool           // guarded by mu
	wg     sync.WaitGroup // internally synchronized; Add in New, Wait in Close
	stopCh chan struct{}  // created in New; owned by Close (the only closer)
}

// New creates and starts a live server (worker pool plus control loop).
func New(cfg Config) (*Server, error) {
	if cfg.NumItems <= 0 {
		return nil, fmt.Errorf("server: NumItems %d", cfg.NumItems)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.ControlPeriod <= 0 {
		cfg.ControlPeriod = 250 * time.Millisecond
	}
	if cfg.GracePeriod < cfg.ControlPeriod {
		cfg.GracePeriod = cfg.ControlPeriod
	}
	if cfg.MinDecisionSamples <= 0 {
		cfg.MinDecisionSamples = 20
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4096
	}
	if cfg.DefaultFreshness <= 0 || cfg.DefaultFreshness > 1 {
		cfg.DefaultFreshness = 0.9
	}
	if cfg.QueryWork == nil {
		cfg.QueryWork = func(req QueryRequest) {
			if req.Work > 0 {
				time.Sleep(req.Work)
			}
		}
	}
	if cfg.UpdateWork == nil {
		cfg.UpdateWork = func(req UpdateRequest) {
			if req.Work > 0 {
				time.Sleep(req.Work)
			}
		}
	}
	if err := cfg.Weights.Validate(); err != nil {
		return nil, err
	}
	ideal := make([]float64, cfg.NumItems)
	for i := range ideal {
		ideal[i] = math.Inf(1) // learned online from feed inter-arrivals
	}
	obs := newServerObs(cfg.obsRegistry, cfg.Trace, cfg.obsLabels...)
	kcfg := core.Config{
		Weights:            cfg.Weights,
		GracePeriod:        cfg.GracePeriod.Seconds(),
		MinDecisionSamples: cfg.MinDecisionSamples,
		Seed:               cfg.Seed,
	}
	s := &Server{
		cfg:          cfg,
		start:        time.Now(),
		store:        datastore.New(cfg.NumItems),
		kern:         core.NewKernel(kcfg, ideal, obs.rec),
		acct:         usm.NewClassAccountant(cfg.Weights, nil),
		queue:        readyq.New(),
		lastApplied:  make([]time.Time, cfg.NumItems),
		lastArrival:  make([]time.Time, cfg.NumItems),
		interArrival: make([]stats.EWMA, cfg.NumItems),
		obs:          obs,
		nextID:       cfg.firstID,
		armedAt:      math.Inf(1),
		expiry:       time.NewTimer(time.Hour),
		stopCh:       make(chan struct{}),
	}
	s.expiry.Stop()
	s.obs.cflex.Set(s.kern.Admission().CFlex())
	for i := range s.interArrival {
		s.interArrival[i] = *stats.NewEWMA(0.3)
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.wg.Add(2)
	go s.controlLoop()
	go s.expireLoop()
	return s, nil
}

// Close gracefully stops the server: in-flight queries run to completion
// (workers drain), queued-but-unstarted queries resolve as rejections (the
// drained counter tallies them — never a silent drop), and the control
// loop halts. Close blocks until every worker goroutine has exited; it is
// idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.stopCh)
	s.expiry.Stop()
	now := s.now()
	for tx := s.queue.Pop(); tx != nil; tx = s.queue.Pop() {
		q := tx.Owner.(*liveQuery)
		s.drained++
		s.obs.drained.Inc()
		s.backlog -= q.req.Work.Seconds()
		st := q.stagesLocked(now)
		s.finalizeLocked(&q.tx, txn.OutcomeRejected, st, now)
		q.done <- QueryResponse{Outcome: OutcomeRejected, Query: q.tx.ID, Stages: st}
	}
	s.queueGaugesLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// now returns seconds since server start (the algorithm core runs on
// float64 seconds).
func (s *Server) now() float64 { return time.Since(s.start).Seconds() }

// Metrics exposes the server's metrics registry (the source behind
// GET /metrics). Read-only for callers; snapshots are consistent per
// series.
func (s *Server) Metrics() *metrics.Registry { return s.obs.reg }

// TraceRecorder exposes the wall-time trace recorder behind
// GET /debug/trace and GET /debug/controller.
func (s *Server) TraceRecorder() *trace.Recorder { return s.obs.rec }

// slowTop returns the n slowest resolved queries retained so far
// (GET /debug/slow), slowest first.
func (s *Server) slowTop(n int) []slowEntry { return s.obs.slow.topN(n) }

// queueGaugesLocked refreshes the queue-shape gauges. Called at every
// mutation of the ready queue so a /metrics scrape never needs s.mu.
func (s *Server) queueGaugesLocked() {
	s.obs.queueLen.Set(float64(s.queue.Len()))
	s.obs.backlog.Set(s.backlog)
}

// Query submits a user query and blocks until it resolves (success, any
// failure, or its own deadline).
func (s *Server) Query(req QueryRequest) QueryResponse {
	return s.QueryCtx(context.Background(), req)
}

// QueryCtx is Query bound to a client context: when ctx is canceled
// (client disconnect) a still-queued query is removed before it ever
// occupies a worker and resolves as OutcomeCanceled; a query already
// executing runs to its verdict (the worker's CPU is already spent).
func (s *Server) QueryCtx(ctx context.Context, req QueryRequest) QueryResponse {
	resp := s.queryCtx(ctx, req)
	// Every query path funnels through here, so one lock-free tally
	// covers the outcome counters and the latency histogram.
	s.obs.observeQuery(resp)
	return resp
}

// queryCtx runs the query lifecycle; QueryCtx wraps it with metrics.
func (s *Server) queryCtx(ctx context.Context, req QueryRequest) QueryResponse {
	started := time.Now()
	if req.Freshness <= 0 {
		req.Freshness = s.cfg.DefaultFreshness
	}
	if req.Deadline <= 0 {
		req.Deadline = time.Second
	}
	for _, it := range req.Items {
		if it < 0 || it >= s.cfg.NumItems {
			return QueryResponse{Outcome: OutcomeRejected, Latency: time.Since(started)}
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return QueryResponse{Outcome: OutcomeRejected, Latency: time.Since(started)}
	}
	// One clock read stamps the arrival and its verdict; an admitted
	// query takes a second at enqueue, where its queue wait starts.
	now := s.now()
	s.nextID++
	id := s.nextID
	tx := &s.arrival
	tx.InitQuery(id, now, req.Items, req.Work.Seconds(), req.Deadline.Seconds(), req.Freshness)
	s.obs.rec.Record(trace.Event{T: now, Kind: trace.KindArrive, Query: id, Items: len(tx.Items), Deadline: tx.Deadline})
	if s.queue.Len() >= s.cfg.MaxQueue {
		// Overload backstop, distinct from the algorithm's admission gate.
		s.shed++
		s.obs.shed.Inc()
		s.obs.rec.Record(trace.Event{T: now, Kind: trace.KindReject, Query: id})
		s.finalizeLocked(tx, txn.OutcomeRejected, nil, now)
		s.mu.Unlock()
		return QueryResponse{Outcome: OutcomeRejected, Latency: time.Since(started), Query: id}
	}
	// Updates apply inline, so the only work ahead of the queue is what the
	// workers are running; the walk reads the queue in place, under s.mu.
	if s.kern.Admission().AdmitOrdered(now, tx, s.running, s.queue.EDFQueries()) != admission.Admitted {
		s.obs.rec.Record(trace.Event{T: now, Kind: trace.KindReject, Query: id})
		s.finalizeLocked(tx, txn.OutcomeRejected, nil, now)
		s.mu.Unlock()
		return QueryResponse{Outcome: OutcomeRejected, Latency: time.Since(started), Query: id}
	}
	s.obs.rec.Record(trace.Event{T: now, Kind: trace.KindAdmit, Query: id})
	enq := s.now()
	q := &liveQuery{tx: *tx, req: req, ctx: ctx, done: doneChans.Get().(chan QueryResponse), enqueuedAt: enq}
	tx = &q.tx
	tx.Owner = q
	s.queue.Push(tx)
	s.armLocked(q, enq)
	s.backlog += req.Work.Seconds()
	s.obs.rec.Record(trace.Event{T: enq, Kind: trace.KindQueue, Query: id})
	s.queueGaugesLocked()
	s.cond.Signal()
	s.mu.Unlock()

	// The verdict arrives on done from whoever resolves the query: a
	// worker, the deadline timer, or Close. A client that can go away may
	// instead abandon the query while it is still queued.
	if ctx.Done() != nil {
		select {
		case resp := <-q.done:
			doneChans.Put(q.done)
			resp.Latency = time.Since(started)
			return resp
		case <-ctx.Done():
		}
		s.mu.Lock()
		if s.queue.Remove(tx) {
			// The user is gone: nothing enters the USM accountant, the
			// cancellation is only tallied.
			s.backlog -= q.req.Work.Seconds()
			s.queueGaugesLocked()
			s.canceled++
			now := s.now()
			st := q.stagesLocked(now)
			s.obs.rec.Record(trace.Event{T: now, Kind: trace.KindOutcome, Query: id, Outcome: string(OutcomeCanceled), Stages: st})
			s.mu.Unlock()
			doneChans.Put(q.done)
			return QueryResponse{Outcome: OutcomeCanceled, Latency: time.Since(started), Query: id, Stages: st}
		}
		// A worker, the timer or Close got to it first; its verdict is
		// coming.
		s.mu.Unlock()
	}
	resp := <-q.done
	doneChans.Put(q.done)
	resp.Latency = time.Since(started)
	return resp
}

// armLocked points the deadline timer at q, due at its deadline, unless
// the timer is already armed for an earlier one. Every push calls it, so
// the timer is always armed for the EDF head or earlier (a head popped by
// a worker leaves it early, and expireDueLocked re-arms).
func (s *Server) armLocked(q *liveQuery, now float64) {
	if q.tx.Deadline >= s.armedAt {
		return
	}
	s.armed, s.armedAt = q, q.tx.Deadline
	s.expiry.Reset(time.Duration(math.Ceil((q.tx.Deadline - now) * 1e9)))
}

// expireLoop runs the deadline timer until Close.
func (s *Server) expireLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopCh:
			return
		case <-s.expiry.C:
			s.mu.Lock()
			if !s.closed {
				s.expireDueLocked(s.now())
			}
			s.mu.Unlock()
		}
	}
}

// expireDueLocked resolves, as deadline misses, the query the timer was
// armed for and every queued query whose deadline has passed, then
// re-arms the timer for the new EDF head. The armed query is removed by
// identity, so its deadline holds even when it no longer heads the
// queue. A tick from an earlier arming finds nothing due and only
// re-arms.
func (s *Server) expireDueLocked(now float64) {
	if s.armedAt <= now {
		if s.queue.Remove(&s.armed.tx) {
			s.expireLocked(s.armed, now)
		}
		s.armed, s.armedAt = nil, math.Inf(1)
	}
	for tx := s.queue.Peek(); tx != nil && tx.Deadline <= now; tx = s.queue.Peek() {
		s.queue.Pop()
		s.expireLocked(tx.Owner.(*liveQuery), now)
	}
	if tx := s.queue.Peek(); tx != nil {
		s.armLocked(tx.Owner.(*liveQuery), now)
	}
	s.queueGaugesLocked()
}

// expireLocked resolves q, already unlinked from the queue, as a deadline
// miss and hands the verdict to its caller.
func (s *Server) expireLocked(q *liveQuery, now float64) {
	s.backlog -= q.req.Work.Seconds()
	st := q.stagesLocked(now)
	s.finalizeLocked(&q.tx, txn.OutcomeDMF, st, now)
	q.done <- QueryResponse{Outcome: OutcomeDMF, Query: q.tx.ID, Stages: st}
}

// Update ingests one update-feed write. It returns true when the update
// was applied, false when modulation dropped it. A NaN or infinite value
// is refused: no query could return it, since JSON has no token for it.
func (s *Server) Update(req UpdateRequest) (bool, error) {
	if req.Item < 0 || req.Item >= s.cfg.NumItems {
		return false, fmt.Errorf("server: item %d out of range", req.Item)
	}
	if math.IsNaN(req.Value) || math.IsInf(req.Value, 0) {
		return false, fmt.Errorf("server: bad value %v: must be a finite number", req.Value)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false, fmt.Errorf("server: closed")
	}
	now := time.Now()
	mod := s.kern.Modulator()
	// Learn the feed's ideal period from observed inter-arrival times.
	if !s.lastArrival[req.Item].IsZero() {
		s.interArrival[req.Item].Observe(now.Sub(s.lastArrival[req.Item]).Seconds())
	}
	s.lastArrival[req.Item] = now
	if p := s.interArrival[req.Item].Value(); p > 0 {
		mod.SetIdealPeriod(req.Item, p)
	}
	mod.OnUpdate(req.Item, req.Work.Seconds())

	// Throttle only items the controller actually degraded. Live feeds
	// jitter, so comparing each inter-arrival against the learned mean
	// period would drop roughly half of a healthy feed's writes; an
	// undegraded item therefore always applies.
	period := mod.Period(req.Item)
	ideal := mod.IdealPeriod(req.Item)
	degradedItem := !math.IsInf(ideal, 1) && period > ideal*(1+1e-9)
	if degradedItem && !s.lastApplied[req.Item].IsZero() {
		if now.Sub(s.lastApplied[req.Item]).Seconds() < period*(1-1e-9) {
			s.store.DropUpdate(req.Item)
			s.updatesDropped++
			s.obs.staleness.Set(float64(s.store.StaleItems()))
			s.mu.Unlock()
			s.obs.updates[false].Inc()
			return false, nil
		}
	}
	s.lastApplied[req.Item] = now
	s.mu.Unlock()

	if !s.runUpdateWork(req) {
		// The refresh computation panicked: the delivery is lost, so the
		// stored copy ages exactly as if the feed had dropped it.
		s.mu.Lock()
		s.store.DropUpdate(req.Item)
		s.panicked++
		s.obs.staleness.Set(float64(s.store.StaleItems()))
		s.mu.Unlock()
		s.obs.panicked.Inc()
		s.obs.updates[false].Inc()
		return false, fmt.Errorf("server: refresh for item %d panicked", req.Item)
	}

	s.mu.Lock()
	s.store.ApplyUpdate(req.Item, req.Value, s.now())
	s.updatesApplied++
	s.obs.staleness.Set(float64(s.store.StaleItems()))
	s.mu.Unlock()
	s.obs.updates[true].Inc()
	return true, nil
}

// runUpdateWork executes a refresh's computation with panic containment;
// it reports whether the work completed.
func (s *Server) runUpdateWork(req UpdateRequest) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ok = false
		}
	}()
	s.cfg.UpdateWork(req)
	return true
}

// Stats returns a snapshot of the server's accounting (a defensive deep
// copy; see the Stats type).
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

// StatsWindow is Stats plus the outcome tally and USM over the trailing
// wall-clock window (GET /stats?window=...). Non-positive windows return
// the plain snapshot.
func (s *Server) StatsWindow(window time.Duration) Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.statsLocked()
	if window <= 0 {
		return st
	}
	counts, covered := s.windowCountsLocked(window)
	st.Window = &WindowStats{
		Seconds: window.Seconds(),
		Covered: covered,
		Counts:  counts,
		USM:     counts.USM(s.cfg.Weights),
	}
	return st
}

func (s *Server) statsLocked() Stats {
	total := s.acct.Total()
	return Stats{
		Counts:            total.Counts,
		USM:               total.USM(),
		CFlex:             s.kern.Admission().CFlex(),
		DegradedItems:     s.kern.Modulator().DegradedCount(),
		UpdatesApplied:    s.updatesApplied,
		UpdatesDropped:    s.updatesDropped,
		QueueLength:       s.queue.Len(),
		StaleItems:        s.store.StaleItems(),
		RetryAfterSeconds: s.retryAfterLocked().Seconds(),

		QueriesShed:     s.shed,
		QueriesPanicked: s.panicked,
		QueriesCanceled: s.canceled,
		QueriesDrained:  s.drained,

		LBCDecisions: s.kern.Decisions(),
		LBCSignals:   s.kern.SignalCounts(),
	}
}

// windowCountsLocked tallies the retained outcomes inside the trailing
// window. covered is the horizon the history actually spans: the window
// itself, truncated to the server's uptime and — when the ring wrapped —
// to the oldest retained stamp.
func (s *Server) windowCountsLocked(window time.Duration) (usm.Counts, float64) {
	now := s.now()
	cutoff := now - window.Seconds()
	var c usm.Counts
	for _, st := range s.winLog {
		if st.at > cutoff {
			c.Record(st.o)
		}
	}
	covered := window.Seconds()
	if now < covered {
		covered = now
	}
	if len(s.winLog) == winLogCap {
		if span := now - s.winLog[s.winNext].at; span < covered {
			covered = span
		}
	}
	return c, covered
}

// RetryAfter estimates how long a rejected client should wait before
// retrying: the queued work spread across the pool, clamped to [1s, 30s].
// The HTTP layer advertises it on 429 responses.
func (s *Server) RetryAfter() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retryAfterLocked()
}

func (s *Server) retryAfterLocked() time.Duration {
	per := s.backlog / float64(s.cfg.Workers)
	d := time.Duration(math.Ceil(per)) * time.Second
	if d < time.Second {
		d = time.Second
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// finalizeLocked records a query's terminal outcome, resolved at server
// time now, into the USM accountant and feeds its demand to the kernel;
// callers hold s.mu.
func (s *Server) finalizeLocked(tx *txn.Txn, o txn.Outcome, stages *trace.StageBreakdown, now float64) {
	tx.Outcome = o
	s.acct.Record(o, tx.PrefClass)
	s.kern.OnQueryDone(tx)
	if stages == nil {
		stages = &noStages
	}
	s.obs.rec.Record(trace.Event{T: now, Kind: trace.KindOutcome, Query: tx.ID, Outcome: o.String(), Stages: stages})
	// Ring-append into the windowed-USM history (GET /stats?window=).
	st := outcomeStamp{at: now, o: o}
	if len(s.winLog) < winLogCap {
		s.winLog = append(s.winLog, st)
	} else {
		s.winLog[s.winNext] = st
		s.winNext = (s.winNext + 1) % winLogCap
	}
	s.obs.usmTotal.Set(s.acct.Total().USM())
}

// worker pops EDF queries and executes them.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.queue.Len() == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		q := s.queue.Pop().Owner.(*liveQuery)
		s.backlog -= q.req.Work.Seconds()
		s.queueGaugesLocked()
		now := s.now()
		if q.ctx != nil && q.ctx.Err() != nil {
			// Client already gone: a canceled query never occupies the
			// worker and never enters the USM.
			s.canceled++
			st := q.stagesLocked(now)
			s.obs.rec.Record(trace.Event{T: now, Kind: trace.KindOutcome, Query: q.tx.ID, Outcome: string(OutcomeCanceled), Stages: st})
			s.mu.Unlock()
			q.done <- QueryResponse{Outcome: OutcomeCanceled, Query: q.tx.ID, Stages: st}
			// Canceled queries bypass the USM by design: the user is gone,
			// so q.tx stays unresolved and only s.canceled tallies it.
			continue
		}
		if now >= q.tx.Deadline {
			st := q.stagesLocked(now)
			s.finalizeLocked(&q.tx, txn.OutcomeDMF, st, now)
			s.mu.Unlock()
			q.done <- QueryResponse{Outcome: OutcomeDMF, Query: q.tx.ID, Stages: st}
			continue
		}
		q.execStart = now
		s.obs.rec.Record(trace.Event{T: now, Kind: trace.KindExecute, Query: q.tx.ID, Wait: now - q.tx.Arrival})
		// Read phase: sample freshness and values.
		fresh := s.store.QueryFreshness(q.req.Items)
		values := make(map[string]float64, len(q.req.Items))
		for _, item := range q.req.Items {
			v, _ := s.store.Get(item)
			values[strconv.Itoa(item)] = v
			s.store.RecordAccess(item)
		}
		s.running += q.req.Work.Seconds()
		s.mu.Unlock()

		completed := s.runQueryWork(q.req)

		s.mu.Lock()
		s.running -= q.req.Work.Seconds()
		now = s.now()
		if !completed {
			// The query's computation panicked. The user's deadline is as
			// missed as if the work had timed out, so it records as DMF —
			// and the recover above means this worker keeps serving; the
			// pool never shrinks.
			s.panicked++
			s.obs.panicked.Inc()
			st := q.stagesLocked(now)
			s.finalizeLocked(&q.tx, txn.OutcomeDMF, st, now)
			s.mu.Unlock()
			q.done <- QueryResponse{Outcome: OutcomeDMF, Query: q.tx.ID, Stages: st}
			continue
		}
		outcome := txn.OutcomeSuccess
		resp := QueryResponse{Outcome: OutcomeSuccess, Values: values, Freshness: fresh, Query: q.tx.ID}
		switch {
		case now >= q.tx.Deadline:
			outcome = txn.OutcomeDMF
			resp = QueryResponse{Outcome: OutcomeDMF, Query: q.tx.ID}
		case fresh < q.req.Freshness:
			outcome = txn.OutcomeDSF
			resp.Outcome = OutcomeDSF
		}
		st := q.stagesLocked(now)
		resp.Stages = st
		s.finalizeLocked(&q.tx, outcome, st, now)
		s.mu.Unlock()
		q.done <- resp
	}
}

// runQueryWork executes a query's computation with panic containment; it
// reports whether the work completed (false = panicked).
func (s *Server) runQueryWork(req QueryRequest) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ok = false
		}
	}()
	s.cfg.QueryWork(req)
	return true
}

// controlLoop runs the LBC on the wall clock.
func (s *Server) controlLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.ControlPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-ticker.C:
			s.controlTick()
		}
	}
}

// controlTick hands the kernel the outcomes finalized since the last tick
// and publishes the resulting controller state. An empty decision window
// leaves unit_usm_window alone: its USM reads 0, the value of a
// half-failed window, not of an idle one.
func (s *Server) controlTick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.kern.Tick(s.now(), s.acct.Rollover())
	if st.Samples > 0 {
		s.obs.usmWindow.Set(st.WindowUSM)
	}
	if !st.Decided {
		return
	}
	s.obs.cflex.Set(s.kern.Admission().CFlex())
	s.obs.degraded.Set(float64(s.kern.Modulator().DegradedCount()))
	s.obs.staleness.Set(float64(s.store.StaleItems()))
	s.obs.recordActions(st.Applied)
}
