// Package control implements UNIT's Load Balancing Controller and its
// Adaptive Allocation Algorithm (paper §3.2, Fig. 2). The controller fires
// periodically (the grace period) or immediately when the windowed USM
// drops by more than a threshold — 1% of the USM range — and then acts on
// the dominant penalty:
//
//	rejection cost highest      → Loosen Admission Control
//	DMF cost highest            → Degrade Updates + Tighten Admission Control
//	DSF cost highest            → Upgrade Updates
//
// With all-zero weights the raw failure ratios stand in for the costs, so
// the controller still chases the largest failure class to protect the
// success ratio. Ties break randomly, per the paper.
package control

import (
	"unitdb/internal/core/usm"
	"unitdb/internal/stats"
)

// Action is the control signal set produced by one allocation decision.
type Action struct {
	LoosenAC      bool
	TightenAC     bool
	DegradeUpdate bool
	UpgradeUpdate bool
}

// None reports whether the action carries no signal.
func (a Action) None() bool {
	return !a.LoosenAC && !a.TightenAC && !a.DegradeUpdate && !a.UpgradeUpdate
}

// String renders the signals compactly.
func (a Action) String() string {
	if a.None() {
		return "none"
	}
	s := ""
	if a.LoosenAC {
		s += "LAC "
	}
	if a.TightenAC {
		s += "TAC "
	}
	if a.DegradeUpdate {
		s += "DU "
	}
	if a.UpgradeUpdate {
		s += "UU "
	}
	return s[:len(s)-1]
}

// LBC is the Load Balancing Controller.
type LBC struct {
	weights   usm.Weights
	rng       *stats.RNG
	threshold float64 // USM-drop trigger, 1% of the USM range

	lastWindowUSM float64
	primed        bool
}

// New creates a controller for the given weights. rng breaks cost ties.
func New(w usm.Weights, rng *stats.RNG) *LBC {
	if err := w.Validate(); err != nil {
		panic(err)
	}
	return &LBC{weights: w, rng: rng, threshold: 0.01 * w.Range()}
}

// DropTriggered reports whether the new window's USM fell more than the
// threshold below the previous window's, and remembers the new value.
// The first window only primes the memory.
func (l *LBC) DropTriggered(windowUSM float64) bool {
	if !l.primed {
		l.primed = true
		l.lastWindowUSM = windowUSM
		return false
	}
	dropped := windowUSM < l.lastWindowUSM-l.threshold
	l.lastWindowUSM = windowUSM
	return dropped
}

// Costs are the effective per-query outcome costs one decision compared:
// the average weighted rejection, DMF and DSF penalties (R, F_m, F_s of
// paper Eq. 4), or — in the all-zero-weights fallback of Fig. 2 lines
// 2–3 — the raw failure ratios standing in for them. The decision log
// (internal/obs/trace) records them alongside the chosen action.
type Costs struct {
	R  float64 `json:"r"`
	Fm float64 `json:"fm"`
	Fs float64 `json:"fs"`
}

// DecideExplained runs DecideTallyExplained on plain outcome counts,
// weighting every outcome with the controller's own weights.
func (l *LBC) DecideExplained(window usm.Counts) (Action, Costs) {
	var t usm.Tally
	t.Counts = window
	t.Gain = float64(window.Success)
	t.RCost = l.weights.Cr * float64(window.Rejected)
	t.FmCost = l.weights.Cfm * float64(window.DMF)
	t.FsCost = l.weights.Cfs * float64(window.DSF)
	return l.DecideTallyExplained(t)
}

// DecideTallyExplained runs the Adaptive Allocation Algorithm (paper
// Fig. 2) on a weighted tally: the average rejection, DMF and DSF costs
// are compared directly, so queries with different preference weights
// contribute their own penalties (the multi-preference extension of paper
// §3.1). When every cost is zero but failures exist — the naive
// all-zero-weights setting — the raw failure ratios stand in, per Fig. 2
// lines 2–3. A window with no failures yields no action. Alongside the
// action it returns the costs compared, for the decision log.
func (l *LBC) DecideTallyExplained(window usm.Tally) (Action, Costs) {
	r, fm, fs := window.AvgCosts()
	if r == 0 && fm == 0 && fs == 0 {
		_, rr, rfm, rfs := window.Counts.Ratios()
		r, fm, fs = rr, rfm, rfs
	}
	costs := Costs{R: r, Fm: fm, Fs: fs}
	max := r
	if fm > max {
		max = fm
	}
	if fs > max {
		max = fs
	}
	if max == 0 {
		return Action{}, costs
	}
	// Collect the argmax set and break ties randomly (paper Fig. 2 line 4).
	var candidates []int
	if r == max {
		candidates = append(candidates, 0)
	}
	if fm == max {
		candidates = append(candidates, 1)
	}
	if fs == max {
		candidates = append(candidates, 2)
	}
	pick := candidates[0]
	if len(candidates) > 1 {
		pick = candidates[l.rng.Intn(len(candidates))]
	}
	switch pick {
	case 0: // rejection cost dominates
		return Action{LoosenAC: true}, costs
	case 1: // DMF cost dominates
		return Action{DegradeUpdate: true, TightenAC: true}, costs
	default: // DSF cost dominates
		return Action{UpgradeUpdate: true}, costs
	}
}
