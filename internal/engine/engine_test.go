package engine

import (
	"math"
	"testing"
	"unsafe"

	"unitdb/internal/core/usm"
	"unitdb/internal/obs/trace"
	"unitdb/internal/txn"
	"unitdb/internal/workload"
)

// mkWorkload builds a tiny hand-authored workload.
func mkWorkload(items int, duration float64, qs []workload.QuerySpec, us []workload.UpdateSpec) *workload.Workload {
	w := &workload.Workload{
		Name:         "test",
		NumItems:     items,
		Duration:     duration,
		Queries:      qs,
		Updates:      us,
		QueryCounts:  make([]int, items),
		UpdateCounts: make([]int, items),
	}
	for _, q := range qs {
		for _, it := range q.Items {
			w.QueryCounts[it]++
		}
	}
	return w
}

func q(arrival float64, item int, exec, rel float64) workload.QuerySpec {
	return workload.QuerySpec{
		Arrival: arrival, Items: []int{item}, Exec: exec, EstExec: exec,
		RelDeadline: rel, FreshReq: 0.9,
	}
}

func runWith(t *testing.T, w *workload.Workload, p Policy) *Results {
	t.Helper()
	cfg := NewConfig(w, usm.Weights{}, 7)
	cfg.PhaseUpdates = false // deterministic feed alignment for tests
	e, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// admitAll is the trivial policy (IMU without the name).
type admitAll struct{ Base }

func (admitAll) Name() string { return "admit-all" }

func TestSingleQuerySucceeds(t *testing.T) {
	w := mkWorkload(2, 100, []workload.QuerySpec{q(10, 0, 2, 5)}, nil)
	r := runWith(t, w, admitAll{})
	if r.Counts.Success != 1 || r.Counts.Total() != 1 {
		t.Fatalf("counts = %+v", r.Counts)
	}
	if math.Abs(r.AvgLatency-2) > 1e-9 {
		t.Fatalf("latency = %v, want exec time 2", r.AvgLatency)
	}
	if r.AvgFreshness != 1 {
		t.Fatalf("freshness = %v", r.AvgFreshness)
	}
	if math.Abs(r.QueryCPU*w.Duration-2) > 1e-9 {
		t.Fatalf("query CPU = %v", r.QueryCPU*w.Duration)
	}
}

func TestFirmDeadlineInQueue(t *testing.T) {
	// Two queries, same arrival; the EDF-earlier one runs 5s; the later one
	// has a 3s deadline and must die in the queue.
	w := mkWorkload(2, 100, []workload.QuerySpec{
		q(0, 0, 5, 4), // runs first (earlier deadline)
		q(0, 1, 1, 3), // waits, deadline at t=3 < first completion at 5
	}, nil)
	r := runWith(t, w, admitAll{})
	if r.Counts.DMF != 1 {
		t.Fatalf("expected one queue DMF, got %+v", r.Counts)
	}
	// The first query misses its own 4s deadline too (needs 5s).
	if r.Counts.Success != 0 || r.Counts.DMF != 1 {
		t.Logf("counts: %+v", r.Counts)
	}
}

func TestDoomedQueryBurnsCPUUntilDeadline(t *testing.T) {
	// A query needing 10s with a 4s deadline runs and is aborted at its
	// deadline — the paper's firm-deadline semantics, with the CPU waste.
	w := mkWorkload(1, 100, []workload.QuerySpec{q(0, 0, 10, 4)}, nil)
	r := runWith(t, w, admitAll{})
	if r.Counts.DMF != 1 {
		t.Fatalf("counts = %+v", r.Counts)
	}
	if got := r.QueryCPU * w.Duration; math.Abs(got-4) > 1e-9 {
		t.Fatalf("burned %v CPU, want 4 (ran until the deadline)", got)
	}
}

func TestUpdatePreemptsQuery(t *testing.T) {
	// Query starts at 0 (exec 10, generous deadline). An update feed with
	// period 3 (exec 1) preempts it repeatedly; the query still finishes.
	w := mkWorkload(2, 12,
		[]workload.QuerySpec{q(0, 0, 6, 100)},
		[]workload.UpdateSpec{{Item: 1, Period: 3, Exec: 1}},
	)
	r := runWith(t, w, admitAll{})
	if r.Counts.Success != 1 {
		t.Fatalf("counts = %+v", r.Counts)
	}
	if r.Preemptions == 0 {
		t.Fatal("expected preemptions")
	}
	if r.UpdatesApplied == 0 {
		t.Fatal("updates never ran")
	}
	// The query reads item 0, which has no feed: fully fresh.
	if r.AvgFreshness != 1 {
		t.Fatalf("freshness = %v", r.AvgFreshness)
	}
}

func TestHPAbortAndRestart(t *testing.T) {
	// The query reads the updated item; an update arriving mid-execution
	// grabs the X lock via 2PL-HP, aborting and restarting the query.
	w := mkWorkload(1, 50,
		[]workload.QuerySpec{q(2.5, 0, 2, 40)},
		[]workload.UpdateSpec{{Item: 0, Period: 4, Exec: 1}},
	)
	r := runWith(t, w, admitAll{})
	if r.HPAborts == 0 {
		t.Fatal("expected a 2PL-HP abort")
	}
	if r.Restarts == 0 {
		t.Fatal("victim never restarted")
	}
	if r.Counts.Success != 1 {
		t.Fatalf("restarted query should still succeed: %+v", r.Counts)
	}
}

// TestDoomedAbortResolvesAtOnce: a query aborted by 2PL-HP that could
// not finish even if restarted at once is resolved as a deadline miss at
// the abort instant, not left pending until its deadline timer fires.
func TestDoomedAbortResolvesAtOnce(t *testing.T) {
	w := mkWorkload(1, 50,
		[]workload.QuerySpec{q(2.5, 0, 2, 3)}, // runs from 2.5, deadline 5.5
		[]workload.UpdateSpec{{Item: 0, Period: 4, Exec: 1}},
	)
	cfg := NewConfig(w, usm.Weights{}, 7)
	cfg.PhaseUpdates = false
	cfg.Trace = trace.New(1024, 16)
	e, err := New(cfg, admitAll{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.HPAborts != 1 || r.Restarts != 0 || r.Counts.DMF != 1 {
		t.Fatalf("aborts %d, restarts %d, counts %+v; want 1 abort, no restart, 1 DMF", r.HPAborts, r.Restarts, r.Counts)
	}
	for _, ev := range cfg.Trace.Events(0) {
		if ev.Kind == trace.KindOutcome {
			if ev.T != 4 {
				t.Fatalf("the doomed query resolved at %v, want the abort instant 4", ev.T)
			}
			return
		}
	}
	t.Fatal("no outcome event for the query")
}

func TestIMUAlwaysFresh(t *testing.T) {
	// Whatever the load, queries that commit under admit-everything with
	// all updates executed read fresh data (paper §4.1 on IMU).
	var qs []workload.QuerySpec
	for i := 0; i < 50; i++ {
		qs = append(qs, q(float64(i)*2, i%4, 0.5, 5))
	}
	w := mkWorkload(4, 120, qs, []workload.UpdateSpec{
		{Item: 0, Period: 1.5, Exec: 0.3},
		{Item: 1, Period: 2.5, Exec: 0.3},
		{Item: 2, Period: 4, Exec: 0.3},
	})
	r := runWith(t, w, admitAll{})
	if r.Counts.DSF != 0 {
		t.Fatalf("IMU-style run produced DSFs: %+v", r.Counts)
	}
	if r.Counts.Total() != 50 {
		t.Fatalf("outcome count %d != submitted 50", r.Counts.Total())
	}
}

// dropUpdates rejects every source update.
type dropUpdates struct{ Base }

func (dropUpdates) Name() string         { return "drop-updates" }
func (dropUpdates) AdmitUpdate(int) bool { return false }

func TestDroppedUpdatesCauseDSF(t *testing.T) {
	// All updates dropped: once the feed has emitted, queries read stale.
	w := mkWorkload(1, 60,
		[]workload.QuerySpec{q(10, 0, 1, 20), q(30, 0, 1, 20)},
		[]workload.UpdateSpec{{Item: 0, Period: 4, Exec: 1}},
	)
	r := runWith(t, w, dropUpdates{})
	if r.Counts.DSF != 2 {
		t.Fatalf("counts = %+v, want 2 DSFs", r.Counts)
	}
	if r.UpdatesApplied != 0 || r.UpdatesDropped == 0 {
		t.Fatalf("updates applied=%d dropped=%d", r.UpdatesApplied, r.UpdatesDropped)
	}
}

// rejectAll bounces every query.
type rejectAll struct{ Base }

func (rejectAll) Name() string             { return "reject-all" }
func (rejectAll) AdmitQuery(*txn.Txn) bool { return false }

func TestRejectionAccounting(t *testing.T) {
	w := mkWorkload(1, 50, []workload.QuerySpec{q(1, 0, 1, 5), q(2, 0, 1, 5)}, nil)
	r := runWith(t, w, rejectAll{})
	if r.Counts.Rejected != 2 || r.Counts.Total() != 2 {
		t.Fatalf("counts = %+v", r.Counts)
	}
	if r.CPUUtilization != 0 {
		t.Fatalf("rejected queries consumed CPU: %v", r.CPUUtilization)
	}
}

func TestSupersedeBoundsQueue(t *testing.T) {
	// A long-running query with the earliest deadline blocks updates?
	// No — updates outrank queries. Instead occupy the CPU with an
	// expensive update feed so a second feed's updates queue and supersede.
	w := mkWorkload(2, 40, nil, []workload.UpdateSpec{
		{Item: 0, Period: 2, Exec: 1.9}, // nearly saturates the CPU
		{Item: 1, Period: 2, Exec: 1.9},
	})
	r := runWith(t, w, admitAll{})
	if r.UpdatesSuperseded == 0 {
		t.Fatal("no supersedes under update overload")
	}
	// Conservation: every source update is applied, dropped, or still
	// pending at the drain.
	if r.UpdatesApplied+r.UpdatesDropped > 2*int(40/2) {
		t.Fatalf("more outcomes than arrivals: applied=%d dropped=%d",
			r.UpdatesApplied, r.UpdatesDropped)
	}
}

func TestRefreshFlow(t *testing.T) {
	// ODU-style: drop the feed, but refresh on demand before the query.
	p := &refreshPolicy{}
	w := mkWorkload(1, 60,
		[]workload.QuerySpec{q(10, 0, 1, 30)},
		[]workload.UpdateSpec{{Item: 0, Period: 4, Exec: 1}},
	)
	r := runWith(t, w, p)
	if r.Counts.Success != 1 {
		t.Fatalf("counts = %+v", r.Counts)
	}
	if r.RefreshesIssued == 0 {
		t.Fatal("no refresh issued")
	}
	if r.AvgFreshness != 1 {
		t.Fatalf("freshness after refresh = %v", r.AvgFreshness)
	}
}

type refreshPolicy struct {
	Base
	e *Engine
}

func (p *refreshPolicy) Name() string         { return "refresh" }
func (p *refreshPolicy) Attach(e *Engine)     { p.e = e }
func (p *refreshPolicy) AdmitUpdate(int) bool { return false }
func (p *refreshPolicy) BeforeQueryDispatch(q *txn.Txn) bool {
	stale := false
	for _, item := range q.Items {
		if p.e.Store().Drops(item) > 0 {
			stale = true
			if p.e.PendingUpdateFor(item) == nil {
				if exec, ok := p.e.FeedExec(item); ok {
					p.e.EnqueueRefresh(item, exec, q.Deadline)
				}
			}
		}
	}
	return !stale
}

func TestDeterminism(t *testing.T) {
	build := func() *workload.Workload {
		qc := workload.SmallQueryConfig()
		qc.NumQueries = 800
		qc.Duration = 4000
		qw, err := workload.GenerateQueries(qc, 5)
		if err != nil {
			t.Fatal(err)
		}
		w, err := workload.GenerateUpdates(qw, workload.DefaultUpdateConfig(workload.Med, workload.Uniform), 6)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	r1 := runWith(t, build(), admitAll{})
	r2 := runWith(t, build(), admitAll{})
	if r1.Counts != r2.Counts || r1.Events != r2.Events || r1.USM != r2.USM {
		t.Fatalf("same seeds diverged: %+v vs %+v", r1.Counts, r2.Counts)
	}
}

func TestOutcomeConservation(t *testing.T) {
	// Every submitted query gets exactly one outcome, under real load.
	qc := workload.SmallQueryConfig()
	qc.NumQueries = 1500
	qc.Duration = 6000
	qw, err := workload.GenerateQueries(qc, 11)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.GenerateUpdates(qw, workload.DefaultUpdateConfig(workload.High, workload.Uniform), 12)
	if err != nil {
		t.Fatal(err)
	}
	r := runWith(t, w, admitAll{})
	if r.Counts.Total() != 1500 {
		t.Fatalf("outcomes %d != submitted 1500", r.Counts.Total())
	}
}

func TestRunTwicePanics(t *testing.T) {
	w := mkWorkload(1, 10, nil, nil)
	e, err := New(NewConfig(w, usm.Weights{}, 1), admitAll{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("second Run did not error")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, admitAll{}); err == nil {
		t.Fatal("nil workload accepted")
	}
	w := mkWorkload(1, 10, nil, nil)
	if _, err := New(NewConfig(w, usm.Weights{Cr: -1}, 1), admitAll{}); err == nil {
		t.Fatal("bad weights accepted")
	}
	bad := mkWorkload(1, 10, nil, nil)
	bad.Queries = []workload.QuerySpec{q(0, 5, 1, 1)} // reads item 5 of 1
	if _, err := New(NewConfig(bad, usm.Weights{}, 1), admitAll{}); err == nil {
		t.Fatal("invalid workload accepted")
	}
}

func TestControlTicks(t *testing.T) {
	p := &tickCounter{}
	w := mkWorkload(1, 10, nil, nil)
	runWith(t, w, p)
	if p.ticks != 10 {
		t.Fatalf("ticks = %d, want 10 (period 1 over duration 10)", p.ticks)
	}
}

type tickCounter struct {
	Base
	ticks int
}

func (p *tickCounter) Name() string           { return "ticks" }
func (p *tickCounter) ControlPeriod() float64 { return 1 }
func (p *tickCounter) OnControlTick()         { p.ticks++ }

func TestBusyTimeSnapshot(t *testing.T) {
	w := mkWorkload(1, 100, []workload.QuerySpec{q(0, 0, 4, 50)}, nil)
	var seen float64
	p := &busyProbe{probe: &seen}
	runWith(t, w, p)
	if seen <= 0 || seen > 4 {
		t.Fatalf("mid-run busy snapshot = %v, want in (0,4]", seen)
	}
}

type busyProbe struct {
	Base
	e     *Engine
	probe *float64
}

func (p *busyProbe) Name() string           { return "busy-probe" }
func (p *busyProbe) Attach(e *Engine)       { p.e = e }
func (p *busyProbe) ControlPeriod() float64 { return 2 }
func (p *busyProbe) OnControlTick() {
	q, u := p.e.BusyTime()
	if q+u > *p.probe {
		*p.probe = q + u
	}
}

// A transaction block must stay a small object: past 32 KiB the runtime
// allocates it on its slower large-object path.
func TestTxnBlockIsSmallObject(t *testing.T) {
	if size := txnBlock * unsafe.Sizeof(txn.Txn{}); size > 32<<10 {
		t.Fatalf("transaction block is %d bytes, want <= 32 KiB", size)
	}
}
