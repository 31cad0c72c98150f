// Package core assembles UNIT, the paper's primary contribution: the Load
// Balancing Controller (feedback control, §3.2), Query Admission Control
// (§3.3) and Update Frequency Modulation (§3.4), wired into one control
// Kernel to maximize the User Satisfaction Metric. The simulator policy
// UNIT and the live server (internal/server) both drive that kernel.
package core

import (
	"fmt"
	"math"

	"unitdb/internal/core/admission"
	"unitdb/internal/core/ufm"
	"unitdb/internal/core/usm"
	"unitdb/internal/engine"
	"unitdb/internal/txn"
)

// Config parameterizes UNIT.
type Config struct {
	// Weights are the USM penalty parameters; they drive both the LBC's
	// cost comparison and the admission controller's USM check.
	Weights usm.Weights
	// ControlPeriod is the monitoring tick of the LBC (seconds).
	ControlPeriod float64
	// GracePeriod is the maximum time between allocation decisions; a
	// windowed USM drop beyond the threshold decides earlier (paper Fig. 2
	// line 1).
	GracePeriod float64
	// MinDecisionSamples is the minimum number of finalized query outcomes
	// a window must hold before the LBC acts on it. Cost ratios measured
	// over one or two queries are noise; acting on them whipsaws the
	// actuators (a single spurious Upgrade undoes many Degrade draws).
	MinDecisionSamples int
	// Seed drives the lottery and tie-breaking randomness.
	Seed uint64

	// ModulatorOptions forward tuning knobs to the modulator.
	ModulatorOptions []ufm.Option
}

// DefaultConfig returns the paper-faithful configuration for the given
// weights.
func DefaultConfig(w usm.Weights) Config {
	return Config{
		Weights:            w,
		ControlPeriod:      1,
		GracePeriod:        5,
		MinDecisionSamples: 25,
		Seed:               1,
	}
}

// UNIT is the policy: the simulator's driver of the control Kernel.
// Create it with New and hand it to engine.New.
type UNIT struct {
	cfg Config

	e *engine.Engine
	k *Kernel

	lastEnqueued []float64
}

// New creates a UNIT policy.
func New(cfg Config) *UNIT {
	if err := cfg.Weights.Validate(); err != nil {
		panic(err)
	}
	if cfg.ControlPeriod <= 0 {
		cfg.ControlPeriod = 1
	}
	if cfg.GracePeriod < cfg.ControlPeriod {
		cfg.GracePeriod = cfg.ControlPeriod
	}
	return &UNIT{cfg: cfg}
}

// Name implements engine.Policy.
func (u *UNIT) Name() string { return "UNIT" }

// Attach implements engine.Policy: it sizes the modulator from the
// workload's update feeds and builds the kernel.
func (u *UNIT) Attach(e *engine.Engine) {
	u.e = e
	w := e.Workload()
	ideal := make([]float64, w.NumItems)
	for i := range ideal {
		ideal[i] = math.Inf(1)
	}
	for _, spec := range w.Updates {
		ideal[spec.Item] = spec.Period
	}
	// Per-transaction weight resolution makes the system USM check honor
	// heterogeneous user preferences (multi-preference extension, §3.1).
	u.k = NewKernel(u.cfg, ideal, e.TraceRecorder(), admission.WithResolver(e.WeightsFor))
	u.lastEnqueued = make([]float64, w.NumItems)
	for i := range u.lastEnqueued {
		u.lastEnqueued[i] = math.Inf(-1)
	}
}

// Admission returns the admission controller (introspection and tests).
func (u *UNIT) Admission() *admission.Controller { return u.k.Admission() }

// Modulator returns the update-frequency modulator (introspection).
func (u *UNIT) Modulator() *ufm.Modulator { return u.k.Modulator() }

// SignalCounts reports how many times each actuator move was applied,
// keyed by SignalNames.
func (u *UNIT) SignalCounts() map[string]int { return u.k.SignalCounts() }

// AdmitQuery implements engine.Policy via the two admission gates.
func (u *UNIT) AdmitQuery(q *txn.Txn) bool {
	ahead := u.e.RunningRemaining() + u.e.UpdateBacklog()
	return u.k.Admission().AdmitOrdered(u.e.Now(), q, ahead, u.e.QueuedQueries()) == admission.Admitted
}

// AdmitUpdate implements engine.Policy: an arriving source update executes
// only when the item's current (possibly degraded) period has elapsed since
// the last executed one.
func (u *UNIT) AdmitUpdate(item int) bool {
	now := u.e.Now()
	period := u.k.Modulator().Period(item)
	if now-u.lastEnqueued[item] < period*(1-1e-9) {
		return false
	}
	u.lastEnqueued[item] = now
	return true
}

// OnSourceUpdate implements engine.Policy: every feed arrival raises the
// item's ticket (Eq. 7).
func (u *UNIT) OnSourceUpdate(item int, exec float64) {
	u.k.Modulator().OnUpdate(item, exec)
}

// BeforeQueryDispatch implements engine.Policy: UNIT never postpones.
func (u *UNIT) BeforeQueryDispatch(*txn.Txn) bool { return true }

// OnQueryDone implements engine.Policy: query demand lowers the tickets of
// the items touched (Eq. 6).
func (u *UNIT) OnQueryDone(q *txn.Txn) { u.k.OnQueryDone(q) }

// OnUpdateApplied implements engine.Policy.
func (u *UNIT) OnUpdateApplied(*txn.Txn) {}

// ControlPeriod implements engine.Policy.
func (u *UNIT) ControlPeriod() float64 { return u.cfg.ControlPeriod }

// OnControlTick implements engine.Policy: the kernel runs paper Fig. 2 on
// the window the engine's accountant rolls over.
func (u *UNIT) OnControlTick() {
	u.k.Tick(u.e.Now(), u.e.Accountant().Rollover())
}

var _ engine.Policy = (*UNIT)(nil)

// String renders the policy configuration.
func (u *UNIT) String() string {
	return fmt.Sprintf("UNIT(weights=%+v tick=%v grace=%v)",
		u.cfg.Weights, u.cfg.ControlPeriod, u.cfg.GracePeriod)
}
