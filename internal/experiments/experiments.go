// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): Table 1 (the update traces), Table 2 (the USM weight
// settings), Figure 3 (access and update distributions, original versus
// UNIT-degraded), Figure 4 (naive USM = success ratio across nine
// trace cells), Figure 5 (USM under non-zero penalties) and Figure 6
// (outcome-ratio decomposition). Each driver returns structured rows and
// can render the same series the paper plots.
package experiments

import (
	"fmt"

	"unitdb/internal/baseline"
	"unitdb/internal/baseline/qmf"
	"unitdb/internal/core"
	"unitdb/internal/core/usm"
	"unitdb/internal/engine"
	"unitdb/internal/experiments/runner"
	"unitdb/internal/workload"
)

// PolicyName identifies one of the four compared algorithms.
type PolicyName string

// The four algorithms of the evaluation.
const (
	IMU  PolicyName = "IMU"
	ODU  PolicyName = "ODU"
	QMF  PolicyName = "QMF"
	UNIT PolicyName = "UNIT"
)

// AllPolicies lists the algorithms in the paper's presentation order.
func AllPolicies() []PolicyName { return []PolicyName{IMU, ODU, QMF, UNIT} }

// Config parameterizes an experiment run.
type Config struct {
	// Query is the query-trace configuration shared by every cell.
	Query workload.QueryConfig
	// QuerySeed and UpdateSeed drive trace synthesis; PolicySeed drives
	// policy randomness (lottery, tie breaks, QMF's admission gate).
	QuerySeed  uint64
	UpdateSeed uint64
	PolicySeed uint64
	// EngineSeed drives the engine's update-feed phasing.
	EngineSeed uint64
	// Workers bounds how many experiment cells run concurrently: 0 (the
	// default) uses one worker per GOMAXPROCS, 1 forces the reference
	// sequential path, larger values cap the pool. Every setting
	// produces reflect.DeepEqual-identical results — cell seeds are
	// derived from the stable (suite, cell) name, never from execution
	// order (see CellSeeds and package runner).
	Workers int
	// Shards is every cell's shard count in the one runner,
	// engine.RunSharded; one shard (or <= 1) is the plain engine. Each
	// shard's seeds derive from the cell seeds by shard index, so results
	// replay identically at any worker count for a fixed shard count.
	Shards int
}

// DefaultConfig returns the full-scale experiment configuration.
func DefaultConfig() Config {
	return Config{
		Query:      workload.DefaultQueryConfig(),
		QuerySeed:  42,
		UpdateSeed: 43,
		PolicySeed: 1,
		EngineSeed: 7,
	}
}

// QuickConfig returns a reduced-scale configuration for tests and
// benchmarks (one tenth of the queries; shapes are noisier).
func QuickConfig() Config {
	c := DefaultConfig()
	c.Query = workload.SmallQueryConfig()
	return c
}

// NewPolicy builds a fresh policy instance by name for the given weights.
func NewPolicy(name PolicyName, weights usm.Weights, seed uint64) (engine.Policy, error) {
	switch name {
	case IMU:
		return baseline.NewIMU(), nil
	case ODU:
		return baseline.NewODU(), nil
	case QMF:
		cfg := qmf.DefaultConfig()
		cfg.Seed = seed
		return qmf.New(cfg), nil
	case UNIT:
		cfg := core.DefaultConfig(weights)
		cfg.Seed = seed
		return core.New(cfg), nil
	default:
		return nil, fmt.Errorf("experiments: unknown policy %q", name)
	}
}

// RunCell executes one (trace, policy, weights) cell with the config's
// raw PolicySeed/EngineSeed. The artifact drivers use RunCellNamed
// instead, which decorrelates cells via per-(suite, cell) derived seeds;
// RunCell remains for one-off cells outside a named sweep.
func (c Config) RunCell(w *workload.Workload, name PolicyName, weights usm.Weights) (*engine.Results, error) {
	return c.runSeeded(w, name, weights, c.PolicySeed, c.EngineSeed)
}

// CellSeeds derives the policy and engine seeds of one named experiment
// cell from the stable (suite, cell) name:
//
//	policySeed = DeriveSeed(PolicySeed, "policy", suite, cell)
//	engineSeed = DeriveSeed(EngineSeed, "engine", suite, cell)
//
// Deriving from the name rather than a shared generator decorrelates the
// cells of a sweep and makes each cell's randomness independent of
// execution order — the invariant that lets the parallel runner promise
// DeepEqual-identical results at any worker count. Trace synthesis
// deliberately keeps the undecorated QuerySeed/UpdateSeed: every cell of
// every suite must evaluate the same shared traces (paper §4.1).
func (c Config) CellSeeds(suite, cell string) (policySeed, engineSeed uint64) {
	return runner.DeriveSeed(c.PolicySeed, "policy", suite, cell),
		runner.DeriveSeed(c.EngineSeed, "engine", suite, cell)
}

// RunCellNamed executes one named (trace, policy, weights) cell with
// seeds derived by CellSeeds.
func (c Config) RunCellNamed(suite, cell string, w *workload.Workload, name PolicyName, weights usm.Weights) (*engine.Results, error) {
	ps, es := c.CellSeeds(suite, cell)
	return c.runSeeded(w, name, weights, ps, es)
}

func (c Config) runSeeded(w *workload.Workload, name PolicyName, weights usm.Weights, policySeed, engineSeed uint64) (*engine.Results, error) {
	return c.run(w, weights, policySeed, engineSeed, func(_ int, seed uint64) (engine.Policy, error) {
		return NewPolicy(name, weights, seed)
	})
}

// run is the one way a cell runs: engine.RunSharded at c.Shards, with
// policy building each shard's policy from its derived seed. The sweep
// already fans cells across the pool, so a cell's shards run
// sequentially and Workers alone bounds the concurrency.
func (c Config) run(w *workload.Workload, weights usm.Weights, policySeed, engineSeed uint64, policy func(shard int, seed uint64) (engine.Policy, error)) (*engine.Results, error) {
	return engine.RunSharded(engine.ShardedConfig{
		Shards:       c.Shards,
		Workload:     w,
		Weights:      weights,
		Seed:         engineSeed,
		PolicySeed:   policySeed,
		PhaseUpdates: true,
		Policy:       policy,
		Workers:      1,
	})
}

// pool returns the runner options for this config's sweeps.
func (c Config) pool() runner.Options { return runner.Options{Workers: c.Workers} }

// BuildQueryTrace synthesizes the shared query trace.
func (c Config) BuildQueryTrace() (*workload.Workload, error) {
	return workload.GenerateQueries(c.Query, c.QuerySeed)
}

// BuildCellTrace attaches one Table 1 update trace to the query trace.
func (c Config) BuildCellTrace(q *workload.Workload, v workload.Volume, d workload.Distribution) (*workload.Workload, error) {
	return workload.GenerateUpdates(q, workload.DefaultUpdateConfig(v, d), c.UpdateSeed)
}
