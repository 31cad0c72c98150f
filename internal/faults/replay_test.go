// Chaos replay tests: each built-in fault schedule is replayed against a
// UNIT-controlled run and the run must be a pure function of its seeds,
// with every query finalized exactly once. The recovery law itself (dip,
// then back inside the pre-fault band) is held by the scenario harness's
// TestChaosRecovery (internal/scenario, DESIGN.md §12).
//
// `make chaos` runs this file under the race detector.
package faults_test

import (
	"reflect"
	"sync"
	"testing"

	"unitdb/internal/core"
	"unitdb/internal/core/usm"
	"unitdb/internal/engine"
	"unitdb/internal/faults"
	"unitdb/internal/obs/trace"
	"unitdb/internal/workload"
)

var chaosWeights = usm.Weights{Cr: 0.25, Cfm: 0.75, Cfs: 0.25}

// chaosWorkload is a med-unif trace dense enough for ~200 query outcomes
// per 100 s: 6000 queries over 3000 s and 64 items, no flash crowds (the
// injected fault is the disturbance under test). Built once — the engine
// treats workloads as read-only.
var chaosWorkload = sync.OnceValue(func() *workload.Workload {
	qc := workload.SmallQueryConfig()
	qc.NumItems = 64
	qc.NumQueries = 6000
	qc.Duration = 3000
	qc.BurstFraction = 0
	q, err := workload.GenerateQueries(qc, 42)
	if err != nil {
		panic(err)
	}
	w, err := workload.GenerateUpdates(q, workload.DefaultUpdateConfig(workload.Med, workload.Uniform), 43)
	if err != nil {
		panic(err)
	}
	return w
})

// runChaos replays the chaos workload under UNIT (policy seed 7) with d
// as the engine's disturbance, returning the results and the run's
// outcome stream: the query id and outcome of every outcome event, in
// the order the engine recorded them.
func runChaos(tb testing.TB, d engine.Disturbance, engineSeed uint64) (*engine.Results, []trace.Event) {
	tb.Helper()
	pcfg := core.DefaultConfig(chaosWeights)
	pcfg.Seed = 7
	cfg := engine.NewConfig(chaosWorkload(), chaosWeights, engineSeed)
	cfg.Disturbance = d
	// The ring holds every span event of the run (a few per query); an
	// overflow would show as missing outcomes in the replay test.
	cfg.Trace = trace.New(1<<17, 0)
	e, err := engine.New(cfg, core.New(pcfg))
	if err != nil {
		tb.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		tb.Fatal(err)
	}
	var outcomes []trace.Event
	for _, ev := range cfg.Trace.Events(0) {
		if ev.Kind == trace.KindOutcome {
			outcomes = append(outcomes, trace.Event{Query: ev.Query, Outcome: ev.Outcome})
		}
	}
	return res, outcomes
}

// builtinSchedules are the fault scenarios the chaos suite pins, in
// stable order.
var builtinSchedules = []struct {
	name  string
	sched *faults.Schedule
}{
	{"feed-outage", faults.MustSchedule(faults.FeedOutage(1200, 1500))},
	{"item-blackout", faults.MustSchedule(faults.ItemBlackout(1200, 1500, 0, 1, 2, 3, 4, 5, 6, 7))},
	{"update-burst", faults.MustSchedule(faults.UpdateBurst(1200, 1500, 4))},
	{"cpu-slowdown", faults.MustSchedule(faults.CPUSlowdown(1200, 1400, 3))},
	{"arrival-stall", faults.MustSchedule(faults.ArrivalStall(1200, 1350))},
	{"composite", faults.MustSchedule(
		faults.FeedOutage(900, 1000),
		faults.CPUSlowdown(1300, 1400, 2),
		faults.UpdateBurst(1700, 1800, 3),
	)},
}

// TestChaosDeterministicReplay pins the determinism contract for every
// built-in schedule: same seeds → identical results, per-query outcome
// streams and injector tallies; a different engine seed must diverge.
// Every presented query must emit exactly one outcome event.
func TestChaosDeterministicReplay(t *testing.T) {
	scheds := builtinSchedules
	if testing.Short() {
		scheds = scheds[:2]
	}
	for _, sc := range scheds {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			inj1, inj2 := faults.NewInjector(sc.sched), faults.NewInjector(sc.sched)
			r1, o1 := runChaos(t, inj1, 11)
			r2, o2 := runChaos(t, inj2, 11)
			if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(o1, o2) {
				t.Errorf("same-seed runs diverge (%d vs %d outcome events):\n  %v\n  %v", len(o1), len(o2), r1, r2)
			}
			if c1, c2 := inj1.Counts(), inj2.Counts(); c1 != c2 {
				t.Errorf("same-seed injection counts diverge: %+v vs %+v", c1, c2)
			}
			ids := make(map[int64]bool, len(o1))
			for _, o := range o1 {
				ids[o.Query] = true
			}
			if want := r1.Counts.Total() + r1.QueriesAbandoned; len(o1) != want || len(ids) != want {
				t.Errorf("%d outcome events for %d distinct queries, run finalized or abandoned %d", len(o1), len(ids), want)
			}
			if _, o3 := runChaos(t, faults.NewInjector(sc.sched), 12); reflect.DeepEqual(o1, o3) {
				t.Errorf("engine seeds 11 and 12 replayed identical outcome streams under %s; seed is not flowing", sc.name)
			}
		})
	}
}

// TestChaosUndisturbedBitwiseUnchanged guards the nil fast path: an engine
// with a nil Disturbance and one with an empty schedule must replay the
// undisturbed run bit for bit.
func TestChaosUndisturbedBitwiseUnchanged(t *testing.T) {
	rNil, oNil := runChaos(t, nil, 11)
	rEmpty, oEmpty := runChaos(t, faults.NewInjector(nil), 11)
	if !reflect.DeepEqual(rNil, rEmpty) || !reflect.DeepEqual(oNil, oEmpty) {
		t.Fatal("empty fault schedule perturbed the run")
	}
	if rNil.UpdatesLost != 0 || rNil.QueriesStalled != 0 {
		t.Fatalf("undisturbed run reported disturbances: %+v", rNil)
	}
}
