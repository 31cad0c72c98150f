package core

import (
	"math"
	"reflect"
	"testing"

	"unitdb/internal/core/usm"
	"unitdb/internal/obs/trace"
	"unitdb/internal/txn"
)

// tally weighs plain outcome counts as an accountant would.
func tally(w usm.Weights, c usm.Counts) usm.Tally {
	var t usm.Tally
	outcomes := []txn.Outcome{txn.OutcomeSuccess, txn.OutcomeRejected, txn.OutcomeDMF, txn.OutcomeDSF}
	for i, n := range []int{c.Success, c.Rejected, c.DMF, c.DSF} {
		for j := 0; j < n; j++ {
			t.Record(outcomes[i], w)
		}
	}
	return t
}

// TestKernel drives the kernel with explicit clock values through every
// row of paper Fig. 2, the three guards on its remedies, the min-samples
// gate and both triggers. Each case ticks in order; the last tick is the
// one checked.
func TestKernel(t *testing.T) {
	type tick struct {
		now float64
		c   usm.Counts
	}
	cases := []struct {
		name    string
		w       usm.Weights
		feeds   int  // items with a finite ideal period, of 8
		updates int  // source updates folded in before the ticks
		atFloor bool // C_flex pushed to its floor before the ticks
		ticks   []tick
		decided bool
		signals map[string]int
	}{
		{name: "rejection dominates so loosen",
			ticks: []tick{{5, usm.Counts{Success: 5, Rejected: 4, DMF: 1}}}, decided: true,
			signals: map[string]int{"loosen_ac": 1}},
		{name: "DMF dominates so degrade and tighten",
			ticks: []tick{{5, usm.Counts{Success: 5, Rejected: 1, DMF: 4}}}, decided: true,
			signals: map[string]int{"tighten_ac": 1, "degrade_update": 1}},
		{name: "DSF dominates so upgrade",
			ticks: []tick{{5, usm.Counts{Success: 5, DMF: 1, DSF: 4}}}, decided: true,
			signals: map[string]int{"upgrade_update": 1}},
		{name: "no failures so no moves",
			ticks: []tick{{5, usm.Counts{Success: 10}}}, decided: true,
			signals: map[string]int{}},
		{name: "weighted costs decide",
			w:     usm.Weights{Cr: 10, Cfm: 0.1, Cfs: 0.1},
			ticks: []tick{{5, usm.Counts{Success: 5, Rejected: 1, DMF: 4}}}, decided: true,
			signals: map[string]int{"loosen_ac": 1}},
		{name: "loosen at the floor falls through to degrade",
			atFloor: true,
			ticks:   []tick{{5, usm.Counts{Success: 5, Rejected: 5}}}, decided: true,
			signals: map[string]int{"degrade_update": 1}},
		{name: "loosen at the floor before warm-up moves nothing",
			atFloor: true, feeds: 2, updates: 3,
			ticks: []tick{{5, usm.Counts{Success: 5, Rejected: 5}}}, decided: true,
			signals: map[string]int{}},
		{name: "warm-up holds degrade",
			feeds: 2, updates: 3,
			ticks: []tick{{5, usm.Counts{Success: 5, DMF: 5}}}, decided: true,
			signals: map[string]int{"tighten_ac": 1}},
		{name: "warm-up met at two updates per feed",
			feeds: 2, updates: 4,
			ticks: []tick{{5, usm.Counts{Success: 5, DMF: 5}}}, decided: true,
			signals: map[string]int{"tighten_ac": 1, "degrade_update": 1}},
		{name: "C_r above C_fm degrades without tightening",
			w:     usm.Weights{Cr: 0.8, Cfm: 0.2, Cfs: 0.2},
			ticks: []tick{{5, usm.Counts{Success: 5, DMF: 5}}}, decided: true,
			signals: map[string]int{"degrade_update": 1}},
		{name: "min samples hold a thin window",
			ticks:   []tick{{5, usm.Counts{Success: 1, Rejected: 8}}},
			signals: map[string]int{}},
		{name: "min samples count across ticks",
			ticks:   []tick{{1, usm.Counts{Rejected: 5}}, {5, usm.Counts{Success: 5}}},
			decided: true, signals: map[string]int{"loosen_ac": 1}},
		{name: "grace period not yet elapsed",
			ticks:   []tick{{4.9, usm.Counts{Success: 5, Rejected: 5}}},
			signals: map[string]int{}},
		{name: "USM drop decides before the grace period",
			ticks:   []tick{{1, usm.Counts{Success: 10}}, {2, usm.Counts{Rejected: 10}}},
			decided: true, signals: map[string]int{"loosen_ac": 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ideal := make([]float64, 8)
			for i := range ideal {
				ideal[i] = math.Inf(1)
				if i < c.feeds {
					ideal[i] = 1
				}
			}
			cfg := DefaultConfig(c.w)
			cfg.MinDecisionSamples = 10
			rec := trace.New(0, 0)
			k := NewKernel(cfg, ideal, rec)
			for i := 0; i < c.updates; i++ {
				k.Modulator().OnUpdate(i%c.feeds, 1)
			}
			for c.atFloor && !k.Admission().AtFloor() {
				k.Admission().Loosen()
			}
			cflex := k.Admission().CFlex()
			var st Step
			for _, tk := range c.ticks {
				st = k.Tick(tk.now, tally(c.w, tk.c))
			}
			if st.Decided != c.decided {
				t.Fatalf("decided = %v, want %v (step %+v)", st.Decided, c.decided, st)
			}
			if got := k.SignalCounts(); !reflect.DeepEqual(got, c.signals) {
				t.Errorf("signals = %v, want %v", got, c.signals)
			}
			applied := map[string]int{}
			for i, on := range Moves(st.Applied) {
				if on {
					applied[SignalNames[i]]++
				}
			}
			if !reflect.DeepEqual(applied, c.signals) {
				t.Errorf("step applied %v, counts say %v", applied, c.signals)
			}
			switch {
			case c.signals["loosen_ac"] > 0 && k.Admission().CFlex() >= cflex,
				c.signals["tighten_ac"] > 0 && k.Admission().CFlex() <= cflex,
				c.signals["loosen_ac"]+c.signals["tighten_ac"] == 0 && k.Admission().CFlex() != cflex:
				t.Errorf("C_flex %v -> %v does not match signals %v", cflex, k.Admission().CFlex(), c.signals)
			}
			decs := rec.Decisions(0)
			if !c.decided {
				if len(decs) != 0 || k.Decisions() != 0 {
					t.Fatalf("undecided run logged %d decisions, counted %d", len(decs), k.Decisions())
				}
				return
			}
			last := c.ticks[len(c.ticks)-1]
			if len(decs) != 1 || k.Decisions() != 1 {
				t.Fatalf("logged %d decisions, counted %d, want 1", len(decs), k.Decisions())
			}
			if d := decs[0]; d.T != last.now || d.Samples != st.Samples || d.CFlex != k.Admission().CFlex() {
				t.Errorf("decision record %+v disagrees with step %+v at t=%v", d, st, last.now)
			}
			// The decision consumed the window: an idle tick sees nothing.
			if idle := k.Tick(last.now+100, usm.Tally{}); idle.Samples != 0 || idle.Decided {
				t.Errorf("idle tick after a decision = %+v", idle)
			}
		})
	}
}
