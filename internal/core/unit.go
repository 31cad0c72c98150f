// Package core assembles UNIT, the paper's primary contribution: the Load
// Balancing Controller (feedback control, §3.2), Query Admission Control
// (§3.3) and Update Frequency Modulation (§3.4), wired over the simulation
// engine to maximize the User Satisfaction Metric.
package core

import (
	"fmt"
	"math"

	"unitdb/internal/core/admission"
	"unitdb/internal/core/control"
	"unitdb/internal/core/ufm"
	"unitdb/internal/core/usm"
	"unitdb/internal/engine"
	"unitdb/internal/obs/trace"
	"unitdb/internal/stats"
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
	// DegradeBatch is how many lottery draws one Degrade signal performs.
	// Zero picks the item count (~1 draw per item per signal on average).
	// Against the arithmetic Upgrade step this creates the intended
	// bistability: items whose lottery weight exceeds the mean by enough
	// accumulate multiplicative period growth faster than Upgrade's
	// −C_uu·pi can pull them back and run away to deep degradation, while
	// well-accessed items hover near their ideal period.
	DegradeBatch int
	// MinDecisionSamples is the minimum number of finalized query outcomes
	// a window must hold before the LBC acts on it. Cost ratios measured
	// over one or two queries are noise; acting on them whipsaws the
	// actuators (a single spurious Upgrade undoes many Degrade draws).
	MinDecisionSamples int
	// Seed drives the lottery and tie-breaking randomness.
	Seed uint64

	// ModulatorOptions and ControlOptions forward tuning knobs.
	ModulatorOptions []ufm.Option
	ControlOptions   []control.Option
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

// UNIT is the policy. Create it with New and hand it to engine.New.
type UNIT struct {
	cfg Config

	e   *engine.Engine
	ac  *admission.Controller
	mod *ufm.Modulator
	lbc *control.LBC
	rng *stats.RNG

	lastEnqueued []float64
	// sinceDecision accumulates weighted outcome tallies between allocation
	// decisions; tick windows feed the drop trigger.
	sinceDecision usm.Tally
	lastDecision  float64

	nSignals map[string]int
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
	return &UNIT{cfg: cfg, nSignals: make(map[string]int)}
}

// Name implements engine.Policy.
func (u *UNIT) Name() string { return "UNIT" }

// Attach implements engine.Policy: it sizes the modulator from the
// workload's update feeds and initializes the controllers.
func (u *UNIT) Attach(e *engine.Engine) {
	u.e = e
	w := e.Workload()
	u.rng = stats.NewRNG(u.cfg.Seed)
	ideal := make([]float64, w.NumItems)
	for i := range ideal {
		ideal[i] = math.Inf(1)
	}
	for _, spec := range w.Updates {
		ideal[spec.Item] = spec.Period
	}
	u.mod = ufm.New(ideal, u.rng.Split(), u.cfg.ModulatorOptions...)
	// Per-transaction weight resolution makes the system USM check honor
	// heterogeneous user preferences (multi-preference extension, §3.1).
	u.ac = admission.New(u.cfg.Weights, admission.WithResolver(e.WeightsFor))
	u.lbc = control.New(u.cfg.Weights, u.rng.Split(), u.cfg.ControlOptions...)
	u.lastEnqueued = make([]float64, w.NumItems)
	for i := range u.lastEnqueued {
		u.lastEnqueued[i] = math.Inf(-1)
	}
	if u.cfg.DegradeBatch == 0 {
		u.cfg.DegradeBatch = w.NumItems
	}
}

// Admission returns the admission controller (introspection and tests).
func (u *UNIT) Admission() *admission.Controller { return u.ac }

// Modulator returns the update-frequency modulator (introspection).
func (u *UNIT) Modulator() *ufm.Modulator { return u.mod }

// Controller returns the LBC (introspection).
func (u *UNIT) Controller() *control.LBC { return u.lbc }

// SignalCounts reports how many times each control signal fired.
func (u *UNIT) SignalCounts() map[string]int {
	out := make(map[string]int, len(u.nSignals))
	for k, v := range u.nSignals {
		out[k] = v
	}
	return out
}

// AdmitQuery implements engine.Policy via the two admission gates.
func (u *UNIT) AdmitQuery(q *txn.Txn) bool {
	ahead := u.e.RunningRemaining() + u.e.UpdateBacklog()
	return u.ac.AdmitOrdered(u.e.Now(), q, ahead, u.e.QueuedQueries()) == admission.Admitted
}

// AdmitUpdate implements engine.Policy: an arriving source update executes
// only when the item's current (possibly degraded) period has elapsed since
// the last executed one.
func (u *UNIT) AdmitUpdate(item int) bool {
	now := u.e.Now()
	period := u.mod.Period(item)
	if now-u.lastEnqueued[item] < period*(1-1e-9) {
		return false
	}
	u.lastEnqueued[item] = now
	return true
}

// OnSourceUpdate implements engine.Policy: every feed arrival raises the
// item's ticket (Eq. 7).
func (u *UNIT) OnSourceUpdate(item int, exec float64) {
	u.mod.OnUpdate(item, exec)
}

// BeforeQueryDispatch implements engine.Policy: UNIT never postpones.
func (u *UNIT) BeforeQueryDispatch(*txn.Txn) bool { return true }

// OnQueryDone implements engine.Policy: query demand lowers the tickets of
// the items touched (Eq. 6). Every submitted query counts, not only the
// committed ones — a rejected or deadline-missed query needed its items
// just the same, and counting only commits starves the ticket ledger of
// its access signal exactly when the system is overloaded (queries fail →
// no decrements → hot items drift ticket-positive → their updates get
// degraded → more queries fail), a death spiral.
func (u *UNIT) OnQueryDone(q *txn.Txn) {
	for _, item := range q.Items {
		u.mod.OnQueryAccess(item, q.EstExec, q.RelDeadline)
	}
}

// OnUpdateApplied implements engine.Policy.
func (u *UNIT) OnUpdateApplied(*txn.Txn) {}

// ControlPeriod implements engine.Policy.
func (u *UNIT) ControlPeriod() float64 { return u.cfg.ControlPeriod }

// OnControlTick implements engine.Policy: the LBC monitors the windowed
// USM and decides when the window shows a drop beyond the threshold or the
// grace period has elapsed (paper Fig. 2).
func (u *UNIT) OnControlTick() {
	u.sinceDecision.Add(u.e.Accountant().Rollover())
	if u.sinceDecision.Counts.Total() < u.cfg.MinDecisionSamples {
		return
	}
	now := u.e.Now()
	windowUSM := u.sinceDecision.USM()
	samples := u.sinceDecision.Counts.Total()
	trigger := now-u.lastDecision >= u.cfg.GracePeriod
	dropped := u.lbc.DropTriggered(windowUSM)
	if dropped {
		trigger = true
	}
	if !trigger {
		return
	}
	action, costs := u.lbc.DecideTallyExplained(u.sinceDecision)
	u.sinceDecision = usm.Tally{}
	u.lastDecision = now
	u.apply(action)
	if rec := u.e.TraceRecorder(); rec != nil {
		// Logged after apply so CFlex and the degraded count show the
		// actuator settings the decision produced (paper Fig. 2 state).
		rec.RecordDecision(trace.Decision{
			T:             now,
			Samples:       samples,
			WindowUSM:     windowUSM,
			RCost:         costs.R,
			FmCost:        costs.Fm,
			FsCost:        costs.Fs,
			DropTriggered: dropped,
			Action:        action.String(),
			CFlex:         u.ac.CFlex(),
			DegradedItems: u.mod.DegradedCount(),
		})
	}
}

func (u *UNIT) apply(a control.Action) {
	if a.None() {
		return
	}
	if a.LoosenAC {
		if u.ac.AtFloor() {
			// Admission is already wide open, so the rejections that made
			// rejection the dominant cost stem from a capacity shortage the
			// deadline check merely reports — update load is the only
			// shedable capacity left. Fall through to Degrade so the
			// controller cannot wedge itself at 100% rejection under a
			// sustained update overload (e.g. the 150% "high" traces).
			if u.warmedUp() {
				u.mod.DegradeN(u.cfg.DegradeBatch)
				u.nSignals["LAC-DU"]++
			}
		} else {
			u.ac.Loosen()
			u.nSignals["LAC"]++
		}
	}
	if a.TightenAC {
		// Tightening admission remedies DMF cost by converting would-be
		// misses into rejections — a trade that only pays while a
		// rejection is no more expensive than a miss. When the user says
		// rejections hurt more (C_r > C_fm), the conversion raises the
		// very cost the controller is minimizing, so the Degrade half of
		// the DMF remedy acts alone.
		if u.cfg.Weights.Cr <= u.cfg.Weights.Cfm {
			u.ac.Tighten()
			u.nSignals["TAC"]++
		}
	}
	if a.DegradeUpdate {
		if u.warmedUp() {
			u.mod.DegradeN(u.cfg.DegradeBatch)
			u.nSignals["DU"]++
		}
	}
	if a.UpgradeUpdate {
		u.mod.Upgrade()
		u.nSignals["UU"]++
	}
}

// warmedUp reports whether the ticket ledger has absorbed enough events to
// discriminate hot from cold items. Degrading on an undifferentiated
// ledger draws victims uniformly and pushes every item — hot ones included
// — past the point the Upgrade signal can recover, so Degrade signals are
// held back until roughly two updates per feed have been observed.
func (u *UNIT) warmedUp() bool {
	upd, _ := u.mod.EventsSeen()
	feeds := len(u.e.Workload().Updates)
	return feeds == 0 || upd >= 2*feeds
}

var _ engine.Policy = (*UNIT)(nil)

// String renders the policy configuration.
func (u *UNIT) String() string {
	return fmt.Sprintf("UNIT(weights=%+v tick=%v grace=%v batch=%d)",
		u.cfg.Weights, u.cfg.ControlPeriod, u.cfg.GracePeriod, u.cfg.DegradeBatch)
}
