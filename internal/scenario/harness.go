package scenario

import (
	"fmt"
	"strings"

	"unitdb/internal/core"
	"unitdb/internal/core/usm"
	"unitdb/internal/engine"
	"unitdb/internal/experiments/runner"
	"unitdb/internal/faults"
	"unitdb/internal/txn"
	"unitdb/internal/workload"
)

// The windowed-USM harness mirrors the chaos suite
// (internal/faults/recovery_test.go) so scenario properties and chaos
// regressions speak the same language: 100-second measurement windows,
// the first five excluded as controller warmup, thin windows ignored,
// and recovery demanded within four windows of the disturbance ending.
const (
	windowWidth      = 100.0
	warmupWindows    = 5
	minWindowSamples = 50
	recoveryWindows  = 4
	recoveryTol      = 0.05
)

// scenarioWeights are the USM penalties every simulator scenario runs
// under — the chaos suite's mixed-pressure point, where rejection,
// deadline and staleness penalties all pull on the controller.
var scenarioWeights = usm.Weights{Cr: 0.25, Cfm: 0.75, Cfs: 0.25}

// observer wraps the UNIT policy, bucketing every finalized query into
// fixed virtual-time windows and sampling the ready-queue depth on each
// control tick.
type observer struct {
	engine.Policy
	e        *engine.Engine
	windows  []usm.Counts
	maxQueue int
}

func (p *observer) Attach(e *engine.Engine) {
	p.e = e
	p.Policy.Attach(e)
}

func (p *observer) OnQueryDone(q *txn.Txn) {
	idx := int(p.e.Now() / windowWidth)
	for len(p.windows) <= idx {
		p.windows = append(p.windows, usm.Counts{})
	}
	p.windows[idx].Record(q.Outcome)
	p.Policy.OnQueryDone(q)
}

func (p *observer) OnControlTick() {
	if n := len(p.e.QueuedQueries()); n > p.maxQueue {
		p.maxQueue = n
	}
	p.Policy.OnControlTick()
}

// engineRun bundles everything a simulator scenario's property can
// reason about: res is the front door's logical view, windows are the
// element-wise sum of the per-shard observers' windows (shards share the
// virtual-time axis), maxQueue is the worst single shard's sampled depth,
// and injected sums the per-shard injectors' tallies. At one shard each
// is simply that engine's own.
type engineRun struct {
	res      *engine.Results
	injected faults.Counts
	windows  []usm.Counts
	maxQueue int
	shards   int
}

// runEngine replays one simulator scenario cell through the one runner,
// engine.RunShardedDetail: the given workload under the UNIT policy with
// the given fault schedule, every random stream sub-seeded from cfg.Seed
// via the scenario's name. Each shard gets its own observer policy and
// fault injector (ShardedConfig factories run sequentially in shard
// order, so capturing them by index is safe).
func runEngine(name string, cfg RunConfig, w *workload.Workload, sched *faults.Schedule) (*engineRun, error) {
	n := max(cfg.Shards, 1)
	observers := make([]*observer, n)
	injectors := make([]*faults.Injector, n)
	run, err := engine.RunShardedDetail(engine.ShardedConfig{
		Shards:       n,
		Workload:     w,
		Weights:      scenarioWeights,
		Seed:         runner.DeriveSeed(cfg.Seed, "scenario", name, "engine"),
		PolicySeed:   runner.DeriveSeed(cfg.Seed, "scenario", name, "policy"),
		PhaseUpdates: true,
		Policy: func(shard int, seed uint64) (engine.Policy, error) {
			pcfg := core.DefaultConfig(scenarioWeights)
			pcfg.Seed = seed
			observers[shard] = &observer{Policy: core.New(pcfg)}
			return observers[shard], nil
		},
		Disturbance: func(shard int) engine.Disturbance {
			injectors[shard] = faults.NewInjector(sched)
			return injectors[shard]
		},
		Trace: cfg.Trace,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", name, err)
	}
	r := &engineRun{res: run.Merged, shards: n}
	for i := 0; i < n; i++ {
		for wi, c := range observers[i].windows {
			for len(r.windows) <= wi {
				r.windows = append(r.windows, usm.Counts{})
			}
			r.windows[wi].Add(c)
		}
		if observers[i].maxQueue > r.maxQueue {
			r.maxQueue = observers[i].maxQueue
		}
		c := injectors[i].Counts()
		r.injected.UpdatesBlocked += c.UpdatesBlocked
		r.injected.QueriesStalled += c.QueriesStalled
		r.injected.ExecInflations += c.ExecInflations
		r.injected.QueryInflations += c.QueryInflations
		r.injected.Disconnects += c.Disconnects
	}
	return r, nil
}

// scenarioTrace builds the standard scenario workload: the chaos
// suite's density (64 items, 6000 queries over 3000 s, ~200 outcomes
// per window) with the given arrival/read shape, overlaid with a
// medium-volume update stream. The update stream derives its own seed
// so reshaping queries never silently reshuffles the feeds.
//
// Sharded runs weak-scale: N shards are N CPUs, so the trace carries N
// times the queries at N times the aggregate query utilization, and the
// update stream delivers N times the volume while keeping the N=1 trace's
// update-feed count and per-item periods (TotalOverride pins the feed
// total before the utilization scale spreads the extra volume across
// them). Every shard then sees roughly the single-engine operating point
// and the recovery properties keep their meaning. At shards <= 1 the
// trace is bitwise-identical to earlier releases.
func scenarioTrace(seed uint64, shards int, shape workload.Shape, dist workload.Distribution) (*workload.Workload, error) {
	qc := workload.SmallQueryConfig()
	qc.NumItems = 64
	qc.NumQueries = 6000
	qc.Duration = 3000
	qc.BurstFraction = 0
	qc.NumBursts = 0
	qc.BurstWidth = 0
	ucfg := workload.DefaultUpdateConfig(workload.Med, dist)
	if shards > 1 {
		qc.NumQueries *= shards
		qc.TargetUtilization *= float64(shards)
		ucfg.TotalOverride = workload.Med.TotalUpdates(6000)
		ucfg.UtilizationScale = float64(shards)
	}
	q, err := workload.GenerateShaped(qc, shape, seed)
	if err != nil {
		return nil, err
	}
	return workload.GenerateUpdates(q, ucfg, runner.DeriveSeed(seed, "updates"))
}

// summarize converts an engine run into the Report pieces.
func (r *engineRun) summarize() (Summary, []Window) {
	return Summary{
		Policy:           r.res.Policy,
		USM:              r.res.USM,
		Counts:           r.res.Counts,
		QueriesPresented: r.res.Counts.Total() + r.res.QueriesAbandoned,
		UpdatesApplied:   r.res.UpdatesApplied,
		UpdatesDropped:   r.res.UpdatesDropped,
		UpdatesLost:      r.res.UpdatesLost,
		QueriesStalled:   r.res.QueriesStalled,
		QueriesAbandoned: r.res.QueriesAbandoned,
		MaxQueueDepth:    r.maxQueue,
		Events:           r.res.Events,
		Injection:        r.injected,
	}, windowSeries(r.windows)
}

// windowSeries renders the raw per-window tallies.
func windowSeries(ws []usm.Counts) []Window {
	out := make([]Window, len(ws))
	for i, c := range ws {
		out[i] = Window{
			Index:  i,
			Start:  float64(i) * windowWidth,
			End:    float64(i+1) * windowWidth,
			Counts: c,
			USM:    c.USM(scenarioWeights),
		}
	}
	return out
}

// dumpWindows renders the window series for check detail lines.
func dumpWindows(ws []usm.Counts) string {
	var b strings.Builder
	for i, c := range ws {
		fmt.Fprintf(&b, " w%02d n=%d usm=%+.3f", i, c.Total(), c.USM(scenarioWeights))
	}
	return b.String()
}

// baselineUSM summarizes the settled pre-fault windows (after warmup,
// before faultStart, thin windows skipped): their mean USM and the
// worst single window. The mean anchors the dip clause; the worst
// window anchors recovery, because a single healthy window routinely
// sits a few tenths below the mean and "recovered" must mean "back
// inside the pre-fault operating band", not "above its average".
func baselineUSM(ws []usm.Counts, faultStart float64) (mean, low float64, ok bool) {
	end := int(faultStart / windowWidth)
	sum, n := 0.0, 0
	for i := warmupWindows; i < end && i < len(ws); i++ {
		if ws[i].Total() < minWindowSamples {
			continue
		}
		u := ws[i].USM(scenarioWeights)
		if n == 0 || u < low {
			low = u
		}
		sum += u
		n++
	}
	if n == 0 {
		return 0, 0, false
	}
	return sum / float64(n), low, true
}

// recoveryChecks evaluates the dip-and-recovery contract the chaos
// suite pins (DESIGN.md §9): the windowed USM must fall at least minDip
// below the pre-fault mean in some window overlapping
// [faultStart, faultEnd+windowWidth) — pass minDip <= 0 to skip the dip
// clause for disturbances that need not bite — and must climb back to
// within recoveryTol·Range of the worst pre-fault window (the lower
// edge of the normal operating band) within recoveryWindows windows of
// the fault ending.
func recoveryChecks(ws []usm.Counts, faultStart, faultEnd, minDip float64) []Check {
	base, baseLow, ok := baselineUSM(ws, faultStart)
	if !ok {
		return []Check{checkf("baseline", false, "no settled pre-fault window before t=%g:%s", faultStart, dumpWindows(ws))}
	}
	checks := []Check{checkf("baseline", true, "pre-fault windowed USM mean %.3f, low %.3f", base, baseLow)}

	dipLo, dipHi := int(faultStart/windowWidth), int(faultEnd/windowWidth)+1
	worst, worstOK := 0.0, false
	for i := dipLo; i <= dipHi && i < len(ws); i++ {
		if ws[i].Total() < minWindowSamples {
			continue
		}
		if u := ws[i].USM(scenarioWeights); !worstOK || u < worst {
			worst, worstOK = u, true
		}
	}
	if minDip > 0 {
		switch {
		case !worstOK:
			checks = append(checks, checkf("dip", false, "no populated window during fault [%g,%g)", faultStart, faultEnd))
		default:
			checks = append(checks, checkf("dip", worst <= base-minDip,
				"worst in-fault window USM %.3f vs baseline %.3f (want dip >= %.3f)", worst, base, minDip))
		}
	}

	tol := recoveryTol * scenarioWeights.Range()
	bar := baseLow - tol
	for k := 0; k < recoveryWindows; k++ {
		i := dipHi + k
		if i >= len(ws) {
			break
		}
		if ws[i].Total() < minWindowSamples {
			continue
		}
		if u := ws[i].USM(scenarioWeights); u >= bar {
			return append(checks, checkf("recovery", true,
				"windowed USM back to %.3f (baseline low %.3f - tol %.3f) %d windows after fault end", u, baseLow, tol, k))
		}
	}
	return append(checks, checkf("recovery", false,
		"windowed USM still below %.3f-%.3f %d windows after fault end %g:%s",
		baseLow, tol, recoveryWindows, faultEnd, dumpWindows(ws)))
}

// floorCheck asserts no settled window ever fell below floor — the
// story's damage stays bounded even at its worst.
func floorCheck(ws []usm.Counts, floor float64) Check {
	worst, at, any := 0.0, -1, false
	for i := warmupWindows; i < len(ws); i++ {
		if ws[i].Total() < minWindowSamples {
			continue
		}
		if u := ws[i].USM(scenarioWeights); !any || u < worst {
			worst, at, any = u, i, true
		}
	}
	if !any {
		return checkf("floor", false, "no settled windows")
	}
	return checkf("floor", worst >= floor, "worst settled window w%d USM %.3f, floor %.3f", at, worst, floor)
}

// conservationCheck asserts every presented query is accounted for
// exactly once: finalized outcomes plus abandoned clients must equal
// the workload's query count. presented is the N=1 trace's count; weak
// scaling multiplies it by the shard count.
func conservationCheck(r *engineRun, presented int) Check {
	if r.shards > 1 {
		presented *= r.shards
	}
	got := r.res.Counts.Total() + r.res.QueriesAbandoned
	return checkf("conservation", got == presented,
		"outcomes %d + abandoned %d = %d, presented %d",
		r.res.Counts.Total(), r.res.QueriesAbandoned, got, presented)
}

// queueBoundCheck asserts the ready queue (sampled at every control
// tick) never exceeded bound — backpressure held instead of the backlog
// growing without limit.
func queueBoundCheck(r *engineRun, bound int) Check {
	return checkf("queue-bound", r.maxQueue <= bound,
		"max sampled queue depth %d, bound %d", r.maxQueue, bound)
}
