// Package usm implements the User Satisfaction Metric of paper §2.3: every
// user query earns a success gain G_s = 1 or pays an outcome-specific
// penalty (C_r for rejections, C_fm for deadline-missed failures, C_fs for
// data-stale failures), and the system-wide metric is the average
// USM = S − R − F_m − F_s (Eq. 5), bounded by [−max(C_r,C_fm,C_fs), 1].
package usm

import (
	"fmt"

	"unitdb/internal/txn"
)

// Weights are the user-preference parameters of the metric. The success
// gain is fixed at 1 and the penalties are normalized to it (paper §2.3.1).
type Weights struct {
	Cr  float64 // rejection penalty
	Cfm float64 // deadline-missed failure penalty
	Cfs float64 // data-stale failure penalty
}

// Validate returns an error when any penalty is negative or NaN. Admission's
// USM gate relies on it: a sum of C_fm values never decreases.
func (w Weights) Validate() error {
	if !(w.Cr >= 0 && w.Cfm >= 0 && w.Cfs >= 0) {
		return fmt.Errorf("usm: negative or NaN penalty in %+v", w)
	}
	return nil
}

// Zero reports whether all penalties are zero — the "naive" setting where
// USM degenerates to the plain success ratio (paper §4.3).
func (w Weights) Zero() bool { return w.Cr == 0 && w.Cfm == 0 && w.Cfs == 0 }

// MaxPenalty returns max(C_r, C_fm, C_fs).
func (w Weights) MaxPenalty() float64 {
	m := w.Cr
	if w.Cfm > m {
		m = w.Cfm
	}
	if w.Cfs > m {
		m = w.Cfs
	}
	return m
}

// Range returns the width of the attainable USM interval,
// 1 + max(C_r, C_fm, C_fs) (paper §2.3.2). UNIT's controller uses 1% of
// this as its trigger threshold.
func (w Weights) Range() float64 { return 1 + w.MaxPenalty() }

// Counts tallies query outcomes.
type Counts struct {
	Success  int
	Rejected int
	DMF      int
	DSF      int
}

// Total returns the number of submitted queries covered by the counts.
func (c Counts) Total() int { return c.Success + c.Rejected + c.DMF + c.DSF }

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	c.Success += other.Success
	c.Rejected += other.Rejected
	c.DMF += other.DMF
	c.DSF += other.DSF
}

// Record tallies one outcome. Recording a pending outcome panics: a query
// must be finalized before it is counted.
func (c *Counts) Record(o txn.Outcome) {
	switch o {
	case txn.OutcomeSuccess:
		c.Success++
	case txn.OutcomeRejected:
		c.Rejected++
	case txn.OutcomeDMF:
		c.DMF++
	case txn.OutcomeDSF:
		c.DSF++
	default:
		panic(fmt.Sprintf("usm: recording non-final outcome %v", o))
	}
}

// Ratios returns the outcome ratios R_s, R_r, R_fm, R_fs (each outcome
// count over total submitted). All zero when no queries were submitted.
func (c Counts) Ratios() (rs, rr, rfm, rfs float64) {
	n := c.Total()
	if n == 0 {
		return 0, 0, 0, 0
	}
	f := float64(n)
	return float64(c.Success) / f, float64(c.Rejected) / f, float64(c.DMF) / f, float64(c.DSF) / f
}

// USM evaluates Eq. 5 over the counts: average success gain minus average
// weighted penalties. It returns 0 when no queries were submitted.
func (c Counts) USM(w Weights) float64 {
	n := c.Total()
	if n == 0 {
		return 0
	}
	total := float64(c.Success) - w.Cr*float64(c.Rejected) - w.Cfm*float64(c.DMF) - w.Cfs*float64(c.DSF)
	return total / float64(n)
}

// Accountant tracks outcome counts both cumulatively and over the current
// control window, on behalf of the feedback controller.
type Accountant struct {
	weights Weights
	total   Counts
	window  Counts
}

// NewAccountant creates an accountant with the given weights.
// It panics on invalid weights.
func NewAccountant(w Weights) *Accountant {
	if err := w.Validate(); err != nil {
		panic(err)
	}
	return &Accountant{weights: w}
}

// Weights returns the metric weights.
func (a *Accountant) Weights() Weights { return a.weights }

// Record tallies one finalized outcome into both views.
func (a *Accountant) Record(o txn.Outcome) {
	a.total.Record(o)
	a.window.Record(o)
}

// Total returns the cumulative counts.
func (a *Accountant) Total() Counts { return a.total }

// Window returns the counts since the last Rollover without resetting.
func (a *Accountant) Window() Counts { return a.window }

// Rollover returns the current window counts and starts a new window.
func (a *Accountant) Rollover() Counts {
	w := a.window
	a.window = Counts{}
	return w
}

// TotalUSM evaluates the cumulative USM.
func (a *Accountant) TotalUSM() float64 { return a.total.USM(a.weights) }
