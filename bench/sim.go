package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"unitdb/internal/core/usm"
	"unitdb/internal/engine"
	"unitdb/internal/experiments"
	"unitdb/internal/workload"
)

// simName is the simulator workload.
const simName = "sim-fig4"

// simVolumes are the traces of the grid: Fig. 4's uniform panel.
var simVolumes = []workload.Volume{workload.Low, workload.Med, workload.High}

// simConfig is the experiment configuration: the paper's full-scale
// traces and seeds, whatever --seed says. The grid's cost turned out to
// swing by ±12% with the seeds of the traces and of QMF's admission gate
// (measured over ten seeds), which would drown any change to the code, so
// the simulator's inputs are the one fixed set the paper's figure uses and
// its outputs are pinned in expected.json. quick swaps in the reduced
// trace for smoke runs and tests.
func simConfig(quick bool) experiments.Config {
	cfg := experiments.DefaultConfig()
	if quick {
		cfg = experiments.QuickConfig()
	}
	cfg.Workers = 1
	return cfg
}

// simTraces synthesizes the shared query trace and the grid's update
// traces: the simulator workload's set-up.
func simTraces(cfg experiments.Config) ([]*workload.Workload, error) {
	q, err := cfg.BuildQueryTrace()
	if err != nil {
		return nil, err
	}
	var traces []*workload.Workload
	for _, v := range simVolumes {
		w, err := cfg.BuildCellTrace(q, v, workload.Uniform)
		if err != nil {
			return nil, err
		}
		traces = append(traces, w)
	}
	return traces, nil
}

// gridCells lays the traces out against the four policies.
func gridCells(traces []*workload.Workload) []*simCell {
	var cells []*simCell
	for _, w := range traces {
		for _, p := range experiments.AllPolicies() {
			cells = append(cells, &simCell{trace: w, policy: p})
		}
	}
	return cells
}

// simCell is one (trace, policy) cell of the grid and every run of it.
type simCell struct {
	trace  *workload.Workload
	policy experiments.PolicyName
	// One entry per run: wall seconds, process CPU microseconds, mallocs.
	walls, cpus, mallocs []float64
	first                *engine.Results
}

func (c *simCell) name() string { return c.trace.Name + "/" + string(c.policy) }

// run executes the cell once, single-threaded, and checks that it repeats
// its first run exactly.
func (c *simCell) run(cfg experiments.Config, res *result) error {
	before := readUsage()
	r, err := cfg.RunCellNamed("fig4", c.name(), c.trace, c.policy, usm.Weights{})
	if err != nil {
		return fmt.Errorf("%s: %w", c.name(), err)
	}
	spent := readUsage().since(before)
	c.walls = append(c.walls, spent.wall.Seconds())
	c.cpus = append(c.cpus, micros(spent.cpu))
	c.mallocs = append(c.mallocs, float64(spent.mallocs))
	if c.first == nil {
		c.first = r
		if got := r.Counts.Total() + r.QueriesAbandoned; got != len(c.trace.Queries) {
			res.problemf("%s: %d outcomes for %d queries", c.name(), got, len(c.trace.Queries))
		}
		// Naive weights: Eq. 5 reduces to the success ratio.
		if d := ownUSM(r.Counts, usm.Weights{}) - r.USM; d > 1e-9 || d < -1e-9 {
			res.problemf("%s: Eq. 5 from counts %v != reported USM %v", c.name(), ownUSM(r.Counts, usm.Weights{}), r.USM)
		}
	} else if r.USM != c.first.USM || r.Events != c.first.Events || r.Counts != c.first.Counts {
		res.problemf("%s: pass %d gave usm=%v events=%d, pass 1 gave usm=%v events=%d",
			c.name(), len(c.walls), r.USM, r.Events, c.first.USM, c.first.Events)
	}
	return nil
}

// expectedCell pins one cell's deterministic outputs.
type expectedCell struct {
	USM    float64 `json:"usm"`
	Events int64   `json:"events"`
}

// expectedFile is bench/expected.json: cell -> pinned outputs.
type expectedFile map[string]expectedCell

func loadExpected(path string) (expectedFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e expectedFile
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

// simSetupRepeats is how many times the traces are synthesized; setup_s is
// the median.
const simSetupRepeats = 5

// repeatShare splits the grid after its first pass: a cell that cost less
// than this share of the pass is cheap enough to run again.
const repeatShare = 0.1

// runSim runs the Fig. 4 grid for about budget: one full pass over the 12
// cells, then whole passes over the cheap cells while one still fits. The
// QMF cells are four fifths of a pass and would fit a 25 s budget 1.8
// times, so they run once; the other nine, where events_per_s is read,
// gather four or five runs each.
func runSim(budget time.Duration, quick bool, expectedPath string) (*result, error) {
	res := newResult(simName)
	cfg := simConfig(quick)
	var (
		traces []*workload.Workload
		setups []float64
	)
	for i := 0; i < simSetupRepeats; i++ {
		t0 := time.Now()
		var err error
		if traces, err = simTraces(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.set("setup_s", median(setups), fmt.Sprintf("median of %d trace syntheses", len(setups)))

	cells := gridCells(traces)
	begin := time.Now()
	pass := func(cells []*simCell) error {
		for _, c := range cells {
			if err := c.run(cfg, res); err != nil {
				return err
			}
		}
		return nil
	}
	if err := pass(cells); err != nil {
		return nil, err
	}
	first := time.Since(begin).Seconds()
	var cheap []*simCell
	cheapCost := 0.0
	for _, c := range cells {
		if c.walls[0] < repeatShare*first {
			cheap = append(cheap, c)
			cheapCost += c.walls[0]
		}
	}
	for len(cheap) > 0 && time.Since(begin).Seconds()+cheapCost < budget.Seconds() {
		if err := pass(cheap); err != nil {
			return nil, err
		}
	}
	simMetrics(cells, res)
	if !quick {
		checkExpected(cells, expectedPath, res)
	}
	return res, nil
}

// checkExpected compares the grid with bench/expected.json.
func checkExpected(cells []*simCell, path string, res *result) {
	want, err := loadExpected(path)
	if err != nil {
		res.problemf("expected outputs: %v", err)
		return
	}
	for _, c := range cells {
		w, ok := want[c.name()]
		switch {
		case !ok:
			res.problemf("%s: missing from %s", c.name(), path)
		case w.USM != c.first.USM || w.Events != c.first.Events:
			res.problemf("%s: usm=%v events=%d, expected usm=%v events=%d", c.name(), c.first.USM, c.first.Events, w.USM, w.Events)
		}
	}
}

// simMetrics reports the grid as one pass over it, each cell at the median
// of its runs, so the figures do not depend on how many extra passes the
// budget allowed. The rates and per-event costs are read on the UNIT cells,
// the paper's own algorithm; the baselines enter through the grid's wall
// time and per-cell latency. The live workloads' two call-duration metrics
// have no counterpart in a simulator, so they stand for the wall cost of a
// simulated event where one baseline's code path dominates: the
// admission-heavy QMF cells (reject_p50_us, also the cells whose cost
// swings most from seed to seed) and the update-policy baselines IMU and
// ODU (update_p50_us).
func simMetrics(cells []*simCell, res *result) {
	var (
		grid                 float64
		unit                 struct{ wall, cpu, mallocs, usm, fresh float64 }
		unitEvents           int64
		unitCells, runs      int
		queries, successes   int
		unitQ, unitOK        int
		cellMs, qmfUs, updUs []float64
	)
	for _, c := range cells {
		wall := median(c.walls)
		grid += wall
		cellMs = append(cellMs, wall*1e3)
		queries += c.first.Counts.Total()
		successes += c.first.Counts.Success
		runs += len(c.walls)
		perEvent := wall * 1e6 / float64(c.first.Events)
		switch c.policy {
		case experiments.UNIT:
			unitCells++
			unit.wall += wall
			unit.cpu += median(c.cpus)
			unit.mallocs += median(c.mallocs)
			unit.usm += c.first.USM
			unit.fresh += c.first.AvgFreshness
			unitEvents += c.first.Events
			unitQ += c.first.Counts.Total()
			unitOK += c.first.Counts.Success
		case experiments.QMF:
			qmfUs = append(qmfUs, perEvent)
		default:
			updUs = append(updUs, perEvent)
		}
	}
	res.attempted = runs
	sort.Float64s(cellMs)
	cellNote := fmt.Sprintf("wall ms of one cell, over the %d cells; %d cell runs in all", len(cells), runs)
	res.set("throughput_rps", float64(unitQ)/unit.wall, "simulated queries resolved per wall second, UNIT cells")
	res.set("goodput_rps", float64(unitOK)/unit.wall, "simulated successes per wall second, UNIT cells")
	res.set("success_ratio", float64(successes)/float64(queries), "over the 12 cells, exact")
	res.set("usm", unit.usm/float64(unitCells), "mean over the UNIT cells, exact")
	res.set("latency_p50_ms", percentile(cellMs, 0.5), cellNote)
	res.set("latency_p90_ms", percentile(cellMs, 0.9), cellNote)
	res.set("reject_p50_us", median(qmfUs), "wall us per simulated event, median of the QMF cells")
	res.set("freshness_mean", unit.fresh/float64(unitCells), "mean delivered freshness of the UNIT cells, exact")
	res.set("update_p50_us", median(updUs), "wall us per simulated event, median of the IMU and ODU cells")
	res.set("cpu_us_per_op", unit.cpu/float64(unitEvents), "per simulated event, UNIT cells")
	res.set("allocs_per_op", unit.mallocs/float64(unitEvents), "per simulated event, UNIT cells")
	res.set("events_per_s", float64(unitEvents)/unit.wall, "simulated events per wall second, UNIT cells")
	res.set("grid_wall_s", grid, "sum of the 12 per-cell medians")
}
