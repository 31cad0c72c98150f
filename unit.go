// Package unit is a reproduction of "UNIT: User-centric Transaction
// Management in Web-Database Systems" (Qu, Labrinidis, Mossé, ICDE 2006).
//
// A web-database server answers user queries that carry firm deadlines and
// freshness requirements while a stream of periodic updates refreshes its
// data items. UNIT maximizes a User Satisfaction Metric — success gain
// minus user-weighted penalties for rejections, deadline misses, and stale
// reads — with a feedback controller that steers query admission control
// and update frequency modulation.
//
// This package is the public facade. It wires together the simulation
// engine, the workload synthesizer modeled on the paper's cello99a-based
// traces, the UNIT policy, and the three comparison algorithms (IMU, ODU,
// QMF). The command-line tools under cmd/ and the experiment drivers that
// regenerate every table and figure of the paper build on the same API:
//
//	cfg := unit.DefaultConfig()
//	cfg.Volume, cfg.Distribution = unit.Med, unit.Uniform
//	res, err := unit.Run(cfg)
//
// For live (wall-clock) operation rather than simulation, see NewServer.
package unit

import (
	"unitdb/internal/core/usm"
	"unitdb/internal/engine"
	"unitdb/internal/experiments"
	"unitdb/internal/workload"
)

// Weights are the USM penalty parameters (paper §2.3): Cr for rejections,
// Cfm for deadline-missed failures, Cfs for data-stale failures, all
// normalized to the success gain of 1. The zero value is the "naive"
// setting where USM equals the plain success ratio.
type Weights = usm.Weights

// Results summarizes one simulation run: the USM, the outcome ratios, the
// per-item distributions of paper Fig. 3, and engine internals (CPU
// utilization, 2PL-HP aborts, preemptions).
type Results = engine.Results

// Policy is a transaction-management algorithm plugged into the engine.
type Policy = engine.Policy

// Volume is the update workload volume class of paper Table 1.
type Volume = workload.Volume

// Distribution is the spatial update distribution of paper Table 1.
type Distribution = workload.Distribution

// Update volume classes (15% / 75% / 150% update-only CPU utilization).
const (
	Low  = workload.Low
	Med  = workload.Med
	High = workload.High
)

// Spatial update distributions.
const (
	Uniform             = workload.Uniform
	PositiveCorrelation = workload.PositiveCorrelation
	NegativeCorrelation = workload.NegativeCorrelation
)

// PolicyName selects one of the built-in algorithms.
type PolicyName = experiments.PolicyName

// Built-in algorithms.
const (
	PolicyUNIT = experiments.UNIT
	PolicyIMU  = experiments.IMU
	PolicyODU  = experiments.ODU
	PolicyQMF  = experiments.QMF
)

// Config describes one simulation scenario.
type Config struct {
	// Policy selects the algorithm (default UNIT).
	Policy PolicyName
	// Weights are the USM penalties (zero value = naive USM).
	Weights Weights
	// Query configures the synthesized query trace.
	Query workload.QueryConfig
	// Volume and Distribution pick the Table 1 update trace cell.
	Volume       Volume
	Distribution Distribution
	// Update overrides the cell defaults when non-nil.
	Update *workload.UpdateConfig
	// Seeds; identical seeds reproduce runs bit-for-bit.
	QuerySeed  uint64
	UpdateSeed uint64
	PolicySeed uint64
	EngineSeed uint64
	// Trace, when non-nil, records the query lifecycle and the policy's
	// controller decisions during the run (see NewTraceRecorder). A nil
	// recorder leaves the run bitwise-unchanged.
	Trace *TraceRecorder
	// Shards is the shard count of the one runner, engine.RunSharded:
	// items hash to shards, multi-item queries scatter-gather (freshness
	// = min over shard answers), and each shard's seeds derive from the
	// run seeds by shard index. One shard (or <= 1) is the plain engine.
	Shards int
}

// DefaultConfig returns a full-scale med-unif UNIT scenario with naive
// weights — the paper's §4.2/§4.3 starting point.
func DefaultConfig() Config {
	return Config{
		Policy:       PolicyUNIT,
		Query:        workload.DefaultQueryConfig(),
		Volume:       Med,
		Distribution: Uniform,
		QuerySeed:    42,
		UpdateSeed:   43,
		PolicySeed:   1,
		EngineSeed:   7,
	}
}

// QuickConfig returns a reduced-scale scenario (one tenth of the queries)
// for tests and fast experimentation.
func QuickConfig() Config {
	c := DefaultConfig()
	c.Query = workload.SmallQueryConfig()
	return c
}

// NewPolicy instantiates a built-in algorithm; the empty name is UNIT.
func NewPolicy(name PolicyName, weights Weights, seed uint64) (Policy, error) {
	if name == "" {
		name = PolicyUNIT
	}
	return experiments.NewPolicy(name, weights, seed)
}

// BuildWorkload synthesizes the scenario's workload (query trace plus the
// selected update trace cell).
func BuildWorkload(cfg Config) (*workload.Workload, error) {
	q, err := workload.GenerateQueries(cfg.Query, cfg.QuerySeed)
	if err != nil {
		return nil, err
	}
	ucfg := workload.DefaultUpdateConfig(cfg.Volume, cfg.Distribution)
	if cfg.Update != nil {
		ucfg = *cfg.Update
	}
	return workload.GenerateUpdates(q, ucfg, cfg.UpdateSeed)
}

// Run executes one scenario and returns the results.
func Run(cfg Config) (*Results, error) {
	w, err := BuildWorkload(cfg)
	if err != nil {
		return nil, err
	}
	return RunWorkload(cfg, w)
}

// RunWorkload executes a scenario against an already-built workload,
// letting callers amortize trace synthesis across policies.
func RunWorkload(cfg Config, w *workload.Workload) (*Results, error) {
	return engine.RunSharded(engine.ShardedConfig{
		Shards:       cfg.Shards,
		Workload:     w,
		Weights:      cfg.Weights,
		Seed:         cfg.EngineSeed,
		PolicySeed:   cfg.PolicySeed,
		PhaseUpdates: true,
		Policy: func(_ int, seed uint64) (engine.Policy, error) {
			return NewPolicy(cfg.Policy, cfg.Weights, seed)
		},
		Trace: cfg.Trace,
	})
}

// Compare runs several policies on the identical workload and returns
// their results in the given order.
func Compare(cfg Config, policies ...PolicyName) ([]*Results, error) {
	if len(policies) == 0 {
		policies = []PolicyName{PolicyIMU, PolicyODU, PolicyQMF, PolicyUNIT}
	}
	w, err := BuildWorkload(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]*Results, 0, len(policies))
	for _, p := range policies {
		c := cfg
		c.Policy = p
		r, err := RunWorkload(c, w)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
