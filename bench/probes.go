package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"unitdb/internal/core/admission"
	"unitdb/internal/core/control"
	"unitdb/internal/core/ufm"
	"unitdb/internal/core/usm"
	"unitdb/internal/datastore"
	"unitdb/internal/engine"
	"unitdb/internal/eventsim"
	"unitdb/internal/experiments"
	"unitdb/internal/lockmgr"
	"unitdb/internal/lottery"
	"unitdb/internal/obs/metrics"
	"unitdb/internal/obs/promtext"
	"unitdb/internal/obs/trace"
	"unitdb/internal/readyq"
	"unitdb/internal/server"
	"unitdb/internal/stats"
	"unitdb/internal/txn"
	"unitdb/internal/workload"
)

// probeBudget is how long each micro probe loops, in probeRounds equal
// rounds whose median is reported: a host stall then spoils one round, not
// the figure. A smoke run cuts it to a tenth.
const (
	probeBudget = 150 * time.Millisecond
	probeRounds = 5
)

// prober times probe bodies within its budget.
type prober struct{ budget time.Duration }

// probeSink keeps the compiler from discarding a probe's result.
var probeSink float64

// ns times body, after one untimed call, and returns the median
// round's nanoseconds per call. The clock is read once per batch so that
// reading it does not weigh on a body of a few nanoseconds.
func (p prober) ns(body func(i int)) float64 {
	const batch = 64
	body(0)
	n := 0
	rounds := make([]float64, probeRounds)
	for r := range rounds {
		from := n
		t0 := time.Now()
		for time.Since(t0) < p.budget/probeRounds {
			for end := n + batch; n < end; n++ {
				body(n)
			}
		}
		rounds[r] = float64(time.Since(t0).Nanoseconds()) / float64(n-from)
	}
	return median(rounds)
}

// probeView is the queue snapshot admission decides on, built the way the
// live server builds its own: a copied slice, offered through BulkView.
type probeView struct{ queued []*txn.Txn }

func (v probeView) RunningRemaining() float64 { return 0.004 }
func (v probeView) UpdateBacklog() float64    { return 0 }
func (v probeView) QueuedQueries() []*txn.Txn { return v.queued }
func (v probeView) AppendQueuedQueries(buf []*txn.Txn) []*txn.Txn {
	return append(buf, v.queued...)
}

// admit times one admission decision over a queue of depth queries
// shaped like overload-open's: 2 ms of work, 500 ms deadlines, arrivals
// spread over the last half second. The copy of the queue into the view is
// inside the loop, as it is inside the server's critical section.
func (p prober) admit(depth int) float64 {
	ctrl := admission.New(weights)
	queue := make([]*txn.Txn, depth)
	for i := range queue {
		queue[i] = txn.NewQuery(int64(i), 0.5*float64(i)/float64(depth), []int{i % numItems}, 0.002, 0.5, 0.9)
	}
	cand := txn.NewQuery(int64(depth), 0.5, []int{1}, 0.002, 0.5, 0.9)
	return p.ns(func(int) {
		view := probeView{queued: make([]*txn.Txn, 0, depth)}
		view.queued = append(view.queued, queue...)
		ctrl.Admit(0.5, cand, view)
	})
}

// runProbes runs every layer probe: isolated loops over each package's
// public functions at the operating point the workloads put them in. They
// depend on neither the workload nor the seed; every traced run carries
// them so a layer figure always sits beside the run it explains.
func runProbes(quick bool, res *result) error {
	p := prober{budget: probeBudget}
	if quick {
		p.budget /= 10
	}
	rng := stats.NewRNG(1)
	set := func(name string, v float64) { res.set(name, v, "probe") }

	set("core.admission.admit_ns.q16", p.admit(16))
	set("core.admission.admit_ns.q256", p.admit(256))
	set("core.admission.admit_ns.q1024", p.admit(1024))

	lbc := control.New(weights, rng.Split())
	window := usm.Counts{Success: 420, Rejected: 520, DMF: 50, DSF: 10}
	set("core.control.decide_ns", p.ns(func(int) { lbc.DecideExplained(window) }))

	ideal := make([]float64, numItems)
	for i := range ideal {
		ideal[i] = 1
	}
	mod := ufm.New(ideal, rng.Split())
	set("core.ufm.on_query_access_ns", p.ns(func(i int) { mod.OnQueryAccess(i%numItems, 0.002, 0.5) }))
	set("core.ufm.on_update_ns", p.ns(func(i int) { mod.OnUpdate(i%numItems, 0) }))
	// numItems draws are the server's batch per Degrade signal.
	set("core.ufm.degrade_n_us", p.ns(func(int) { mod.DegradeN(numItems) })/1e3)

	acct := usm.NewAccountant(weights)
	outcomes := [4]txn.Outcome{txn.OutcomeSuccess, txn.OutcomeRejected, txn.OutcomeDMF, txn.OutcomeDSF}
	set("core.usm.record_ns", p.ns(func(i int) { acct.Record(outcomes[i%4]) }))

	store := datastore.New(numItems)
	set("datastore.apply_update_ns", p.ns(func(i int) { store.ApplyUpdate(i%numItems, float64(i), float64(i)*1e-3) }))
	items4 := []int{3, 400, 801, 1023}
	set("datastore.query_freshness_ns", p.ns(func(int) { probeSink += store.QueryFreshness(items4) }))

	ring := trace.New(4096, 0)
	set("obs.trace.record_ns", p.ns(func(i int) {
		ring.Record(trace.Event{T: float64(i), Kind: trace.KindArrive, Query: int64(i), Items: 1, Deadline: 0.5})
	}))
	reg := metrics.NewRegistry()
	hist := reg.Histogram("probe_seconds", "probe", 1e-5, 10, 40)
	set("obs.metrics.observe_ex_ns", p.ns(func(i int) { hist.ObserveEx(float64(i%1000)*1e-4, int64(i)) }))
	ctr := reg.Counter("probe_total", "probe")
	set("obs.metrics.counter_inc_ns", p.ns(func(int) { ctr.Inc() }))

	if err := p.server(res); err != nil {
		return err
	}

	rq := readyq.New()
	set("readyq.push_pop_ns", p.ns(func(i int) {
		rq.Push(txn.NewQuery(int64(i), 0, []int{0}, 1, float64(i%100)+1, 0.9))
		if rq.Len() > 128 {
			rq.Pop()
		}
	}))
	sim := eventsim.New()
	tick := func() {}
	set("eventsim.schedule_pop_ns", p.ns(func(int) {
		sim.After(1, tick)
		sim.Step()
	}))
	locks := lockmgr.New()
	reader := txn.NewQuery(1, 0, []int{7}, 1, 10, 0.9)
	set("lockmgr.acquire_release_ns", p.ns(func(int) {
		locks.AcquireAll(reader)
		locks.ReleaseAll(reader)
	}))
	// 2PL-HP: an update's exclusive request aborts the query holding the
	// item shared. One cycle is hold, abort, release.
	writer := txn.NewUpdate(2, 0, 7, 1, 5)
	set("lockmgr.abort_ns", p.ns(func(int) {
		locks.AcquireAll(reader)
		locks.AcquireAll(writer)
		locks.ReleaseAll(writer)
	}))
	sampler := lottery.NewSampler(numItems)
	for i := 0; i < numItems; i++ {
		sampler.Set(i, rng.Normal(0, 5))
	}
	set("lottery.sample_ns", p.ns(func(int) { probeSink += float64(sampler.Sample(rng.Float64())) }))
	set("lottery.update_ns", p.ns(func(i int) { sampler.Set(i%numItems, rng.Float64()) }))

	return engineProbes(quick, res)
}

// server times the assembled live path with nothing beside it: one
// caller, zero work, no feed.
func (p prober) server(res *result) error {
	cfg := server.DefaultConfig()
	cfg.NumItems, cfg.Weights = numItems, weights
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	ctx := context.Background()
	req := server.QueryRequest{Items: []int{3}, Deadline: time.Second, Freshness: 0.9}
	res.set("server.query_direct_ns", p.ns(func(int) { srv.QueryCtx(ctx, req) }), "probe")
	h := srv.Handler()
	get := httptest.NewRequest(http.MethodGet, "/query?items=3&deadline=1s&freshness=0.9", nil)
	res.set("server.http.serve_ns", p.ns(func(int) { h.ServeHTTP(httptest.NewRecorder(), get) }), "probe, via httptest")
	var writeErr error
	writeNs := p.ns(func(int) {
		if err := promtext.Write(io.Discard, srv.Metrics().Snapshot()); err != nil {
			writeErr = err
		}
	})
	if writeErr != nil {
		return writeErr
	}
	res.set("obs.promtext.write_us", writeNs/1e3, "probe, one /metrics body")

	cfg.Workers = 8
	gate, err := server.NewSharded(cfg, 4)
	if err != nil {
		return err
	}
	defer gate.Close()
	req4 := server.QueryRequest{Items: []int{3, 400, 801, 1023}, Deadline: time.Second, Freshness: 0.9}
	res.set("server.shard.query_4item_ns", p.ns(func(int) { gate.QueryCtx(ctx, req4) }), "probe")
	return nil
}

// engineProbes runs the med-unif trace through each policy once and
// derives the simulator's layer figures from those runs.
func engineProbes(quick bool, res *result) error {
	cfg := simConfig(quick)
	t0 := time.Now()
	traces, err := simTraces(cfg)
	if err != nil {
		return err
	}
	res.set("workload.generate_ms", millis(time.Since(t0)), "query trace + 3 update traces")
	w := traces[1]

	run := func(p experiments.PolicyName, rec *trace.Recorder) (*engine.Results, float64, error) {
		policy, err := experiments.NewPolicy(p, usm.Weights{}, cfg.PolicySeed)
		if err != nil {
			return nil, 0, err
		}
		ecfg := engine.NewConfig(w, usm.Weights{}, cfg.EngineSeed)
		ecfg.Trace = rec
		t0 := time.Now()
		e, err := engine.New(ecfg, policy)
		if err != nil {
			return nil, 0, err
		}
		if p == experiments.IMU && rec == nil {
			res.set("engine.construct_ms", millis(time.Since(t0)), "engine.New on "+w.Name)
		}
		r, err := e.Run()
		return r, time.Since(t0).Seconds(), err
	}
	walls := map[experiments.PolicyName]float64{}
	var unit *engine.Results
	sum := 0.0
	for _, p := range experiments.AllPolicies() {
		r, wall, err := run(p, nil)
		if err != nil {
			return err
		}
		walls[p] = wall
		sum += wall
		res.set("engine.cell_wall_s."+string(p), wall, w.Name+", one run")
		if p == experiments.UNIT {
			unit = r
		}
	}
	res.set("baseline.qmf_share", walls[experiments.QMF]/sum, "QMF's share of the four cells' wall time")
	res.set("engine.preemptions", float64(unit.Preemptions), "UNIT cell")
	res.set("engine.restarts", float64(unit.Restarts), "UNIT cell")
	res.set("lockmgr.hp_aborts", float64(unit.HPAborts), "UNIT cell")

	// The UNIT cell again, alternating recorder off and on.
	plain, traced := []float64{walls[experiments.UNIT]}, []float64{}
	for i := 0; i < 3; i++ {
		_, on, err := run(experiments.UNIT, trace.New(4096, 0))
		if err != nil {
			return err
		}
		traced = append(traced, on)
		if i == 2 {
			break
		}
		_, off, err := run(experiments.UNIT, nil)
		if err != nil {
			return err
		}
		plain = append(plain, off)
	}
	res.set("engine.traced_ratio", median(traced)/median(plain), "UNIT cell wall, Config.Trace on / off, medians of 3")

	rates := map[int]float64{}
	for _, shards := range []int{1, 4} {
		t0 := time.Now()
		r, err := engine.RunSharded(engine.ShardedConfig{
			Shards: shards, Workload: w, Weights: usm.Weights{},
			Seed: cfg.EngineSeed, PolicySeed: cfg.PolicySeed, PhaseUpdates: true,
			Policy: func(_ int, seed uint64) (engine.Policy, error) {
				return experiments.NewPolicy(experiments.UNIT, usm.Weights{}, seed)
			},
		})
		if err != nil {
			return err
		}
		rates[shards] = float64(r.Events) / time.Since(t0).Seconds()
	}
	res.set("engine.sharded4_speedup", rates[4]/rates[1], "UNIT events/s at 4 shards / at 1")

	unattributed(w, unit, walls[experiments.UNIT], res)
	return nil
}

// unattributed stacks the probes' unit costs against the UNIT cell: what
// share of its wall time the probed layers do not explain.
func unattributed(w *workload.Workload, unit *engine.Results, wall float64, res *result) {
	queries := float64(len(w.Queries))
	updates := float64(unit.UpdatesApplied + unit.RefreshesIssued)
	m := res.metrics
	ns := float64(unit.Events)*m["eventsim.schedule_pop_ns"] +
		(queries+updates)*(m["readyq.push_pop_ns"]+m["lockmgr.acquire_release_ns"]) +
		float64(unit.HPAborts)*m["lockmgr.abort_ns"] +
		queries*(m["core.admission.admit_ns.q16"]+m["core.ufm.on_query_access_ns"]+m["core.usm.record_ns"]+m["datastore.query_freshness_ns"]) +
		updates*(m["core.ufm.on_update_ns"]+m["datastore.apply_update_ns"])
	ratio := 1 - ns/1e9/wall
	note := fmt.Sprintf("probes explain %.3f s of the UNIT cell's %.3f s", ns/1e9, wall)
	if ratio > 0.10 {
		note += " (MORE THAN 10% UNATTRIBUTED)"
	}
	res.set("engine.unattributed_ratio", ratio, note)
}
