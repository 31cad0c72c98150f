package core

import (
	"math"

	"unitdb/internal/core/admission"
	"unitdb/internal/core/control"
	"unitdb/internal/core/ufm"
	"unitdb/internal/core/usm"
	"unitdb/internal/obs/trace"
	"unitdb/internal/stats"
	"unitdb/internal/txn"
)

// SignalNames name the four actuator moves a decision can apply, in
// control.Action field order. Both drivers report applied moves under
// them: UNIT.SignalCounts, the live server's /stats lbc_signals and its
// unit_lbc_actions_total action label.
var SignalNames = [4]string{"loosen_ac", "tighten_ac", "degrade_update", "upgrade_update"}

// Moves lists which of the four moves a carries, in SignalNames order.
func Moves(a control.Action) [4]bool {
	return [4]bool{a.LoosenAC, a.TightenAC, a.DegradeUpdate, a.UpgradeUpdate}
}

// Kernel is UNIT's control core, the one implementation of the Adaptive
// Allocation Algorithm (paper Fig. 2) behind both the simulator policy
// and the live server. It owns the three actuators — admission control,
// update frequency modulation and the LBC — and never reads a clock:
// drivers hand it their own now with every control window.
type Kernel struct {
	cfg Config
	ac  *admission.Controller
	mod *ufm.Modulator
	lbc *control.LBC
	rec *trace.Recorder // nil: no decision log

	// window accumulates weighted outcome tallies between allocation
	// decisions; tick windows feed the drop trigger.
	window       usm.Tally
	lastDecision float64

	decisions int
	signals   [4]int // applied moves, in SignalNames order
}

// Step is what one Tick saw and did.
type Step struct {
	// Samples and WindowUSM describe the decision window: the outcomes
	// accumulated since the last decision, this tick's included.
	// WindowUSM is 0 when Samples is.
	Samples   int
	WindowUSM float64
	// Decided reports that a trigger fired and the LBC decided; Applied
	// is then the actuator moves the guards let through.
	Decided bool
	Applied control.Action
}

// NewKernel builds the actuators over the given ideal update periods (one
// per data item, +Inf for items without a feed). The lottery and the LBC
// tie-break draw from cfg.Seed, split in that order. rec, when non-nil,
// receives every decision.
func NewKernel(cfg Config, ideal []float64, rec *trace.Recorder, acOpts ...admission.Option) *Kernel {
	rng := stats.NewRNG(cfg.Seed)
	k := &Kernel{cfg: cfg, rec: rec}
	k.mod = ufm.New(ideal, rng.Split(), cfg.ModulatorOptions...)
	k.ac = admission.New(cfg.Weights, acOpts...)
	k.lbc = control.New(cfg.Weights, rng.Split())
	return k
}

// Admission returns the admission controller.
func (k *Kernel) Admission() *admission.Controller { return k.ac }

// Modulator returns the update-frequency modulator.
func (k *Kernel) Modulator() *ufm.Modulator { return k.mod }

// Decisions returns how many allocation decisions the LBC has taken.
func (k *Kernel) Decisions() int { return k.decisions }

// SignalCounts reports how many times each actuator move was applied,
// keyed by SignalNames; moves never applied are absent.
func (k *Kernel) SignalCounts() map[string]int {
	out := make(map[string]int)
	for i, n := range k.signals {
		if n > 0 {
			out[SignalNames[i]] = n
		}
	}
	return out
}

// OnQueryDone feeds a finalized query's demand into the ticket ledger
// (Eq. 6). Every submitted query counts, not only the committed ones — a
// rejected or deadline-missed query needed its items just the same, and
// counting only commits starves the ledger of its access signal exactly
// when the system is overloaded (queries fail → no decrements → hot items
// drift ticket-positive → their updates get degraded → more queries
// fail), a death spiral.
func (k *Kernel) OnQueryDone(q *txn.Txn) {
	for _, item := range q.Items {
		k.mod.OnQueryAccess(item, q.EstExec, q.RelDeadline)
	}
}

// Tick folds one control window into the decision window and runs paper
// Fig. 2: once the decision window holds MinDecisionSamples outcomes, the
// LBC decides when its USM dropped beyond the threshold or the grace
// period has elapsed since the last decision, and the guarded remedy is
// applied.
func (k *Kernel) Tick(now float64, window usm.Tally) Step {
	k.window.Add(window)
	st := Step{Samples: k.window.Counts.Total(), WindowUSM: k.window.USM()}
	if st.Samples < k.cfg.MinDecisionSamples {
		return st
	}
	dropped := k.lbc.DropTriggered(st.WindowUSM)
	if !dropped && now-k.lastDecision < k.cfg.GracePeriod {
		return st
	}
	action, costs := k.lbc.DecideTallyExplained(k.window)
	k.window = usm.Tally{}
	k.lastDecision = now
	k.decisions++
	st.Decided = true
	st.Applied = k.apply(action)
	if k.rec != nil {
		// Logged after apply so CFlex and the degraded count show the
		// actuator settings the decision produced (paper Fig. 2 state).
		k.rec.RecordDecision(trace.Decision{
			T:             now,
			Samples:       st.Samples,
			WindowUSM:     st.WindowUSM,
			RCost:         costs.R,
			FmCost:        costs.Fm,
			FsCost:        costs.Fs,
			DropTriggered: dropped,
			Action:        action.String(),
			CFlex:         k.ac.CFlex(),
			DegradedItems: k.mod.DegradedCount(),
		})
	}
	return st
}

// apply carries out a decision under three guards and returns the moves
// it made.
func (k *Kernel) apply(a control.Action) control.Action {
	var done control.Action
	if a.LoosenAC {
		if !k.ac.AtFloor() {
			k.ac.Loosen()
			done.LoosenAC = true
		} else {
			// Admission is already wide open, so the rejections that made
			// rejection the dominant cost stem from a capacity shortage the
			// deadline check merely reports — update load is the only
			// shedable capacity left. Fall through to Degrade so the
			// controller cannot wedge itself at 100% rejection under a
			// sustained update overload (e.g. the 150% "high" traces).
			done.DegradeUpdate = k.degrade()
		}
	}
	// Tightening admission remedies DMF cost by converting would-be misses
	// into rejections — a trade that only pays while a rejection is no
	// more expensive than a miss. When the user says rejections hurt more
	// (C_r > C_fm), the conversion raises the very cost the controller is
	// minimizing, so the Degrade half of the DMF remedy acts alone.
	if a.TightenAC && k.cfg.Weights.Cr <= k.cfg.Weights.Cfm {
		k.ac.Tighten()
		done.TightenAC = true
	}
	if a.DegradeUpdate {
		done.DegradeUpdate = k.degrade()
	}
	if a.UpgradeUpdate {
		k.mod.Upgrade()
		done.UpgradeUpdate = true
	}
	for i, on := range Moves(done) {
		if on {
			k.signals[i]++
		}
	}
	return done
}

// degrade runs one Degrade signal — a batch of one lottery draw per data
// item — once the ledger is warmed up, and reports whether it ran.
func (k *Kernel) degrade() bool {
	if !k.warmedUp() {
		return false
	}
	k.mod.DegradeN(k.mod.Len())
	return true
}

// warmedUp reports whether the ticket ledger has absorbed enough events to
// discriminate hot from cold items. Degrading on an undifferentiated
// ledger draws victims uniformly and pushes every item — hot ones included
// — past the point the Upgrade signal can recover, so Degrade signals are
// held back until roughly two updates per feed have been observed. A feed
// is an item with a finite ideal period; a driver that learns a feed's
// period from its inter-arrivals knows it only after its second update,
// so for it the guard is always met.
func (k *Kernel) warmedUp() bool {
	feeds := 0
	for i := 0; i < k.mod.Len(); i++ {
		if !math.IsInf(k.mod.IdealPeriod(i), 1) {
			feeds++
		}
	}
	upd, _ := k.mod.EventsSeen()
	return upd >= 2*feeds
}
