package control

import (
	"testing"

	"unitdb/internal/core/usm"
	"unitdb/internal/stats"
)

func newLBC(w usm.Weights) *LBC { return New(w, stats.NewRNG(1)) }

// TestThresholdIsOnePercentOfRange: the drop trigger fires on a fall of
// more than 1% of the USM range, 1 + max penalty.
func TestThresholdIsOnePercentOfRange(t *testing.T) {
	cases := []struct {
		name      string
		w         usm.Weights
		threshold float64
	}{
		{"naive weights", usm.Weights{}, 0.01},
		{"max penalty 4", usm.Weights{Cr: 1, Cfm: 4, Cfs: 2}, 0.05},
	}
	for _, c := range cases {
		l := newLBC(c.w)
		l.DropTriggered(0.5)
		if l.DropTriggered(0.5 - 0.9*c.threshold) {
			t.Errorf("%s: a fall of 0.9 thresholds triggered", c.name)
		}
		if !l.DropTriggered(0.5 - 2*c.threshold) {
			t.Errorf("%s: a fall of 1.1 thresholds did not trigger", c.name)
		}
	}
}

func TestOptionValidation(t *testing.T) {
	for _, w := range []usm.Weights{{Cr: -1}, {Cfm: -1}, {Cfs: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("negative weights %+v accepted", w)
				}
			}()
			New(w, stats.NewRNG(1))
		}()
	}
}

func TestDropTriggered(t *testing.T) {
	l := newLBC(usm.Weights{}) // threshold 0.01
	if l.DropTriggered(0.9) {
		t.Fatal("first window must only prime")
	}
	if l.DropTriggered(0.895) {
		t.Fatal("drop below threshold triggered")
	}
	if !l.DropTriggered(0.80) {
		t.Fatal("large drop did not trigger")
	}
	// Rising USM never triggers.
	if l.DropTriggered(0.95) {
		t.Fatal("rise triggered")
	}
}

// decide runs one decision on plain counts and drops the costs.
func decide(l *LBC, c usm.Counts) Action {
	a, _ := l.DecideExplained(c)
	return a
}

func TestDecideDominantCostMapping(t *testing.T) {
	// Fig. 2: R -> Loosen; Fm -> Degrade+Tighten; Fs -> Upgrade.
	cases := []struct {
		name   string
		counts usm.Counts
		want   Action
	}{
		{"rejections dominate", usm.Counts{Success: 5, Rejected: 4, DMF: 1}, Action{LoosenAC: true}},
		{"DMF dominates", usm.Counts{Success: 5, Rejected: 1, DMF: 4}, Action{DegradeUpdate: true, TightenAC: true}},
		{"DSF dominates", usm.Counts{Success: 5, DSF: 4, DMF: 1}, Action{UpgradeUpdate: true}},
	}
	for _, c := range cases {
		l := newLBC(usm.Weights{})
		if got := decide(l, c.counts); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestDecideUsesWeightedCosts(t *testing.T) {
	// Raw ratios favor DMF (4 vs 1 rejection) but C_r dwarfs C_fm, so the
	// weighted cost comparison must pick the rejection branch.
	l := newLBC(usm.Weights{Cr: 10, Cfm: 0.1, Cfs: 0.1})
	got := decide(l, usm.Counts{Success: 5, Rejected: 1, DMF: 4})
	if !got.LoosenAC {
		t.Fatalf("weighted decision = %v, want LoosenAC", got)
	}
}

func TestDecideNaiveUsesRawRatios(t *testing.T) {
	// All-zero weights: Fig. 2 lines 2-3 fall back to the raw ratios.
	l := newLBC(usm.Weights{})
	got := decide(l, usm.Counts{Success: 1, DSF: 5, DMF: 2, Rejected: 1})
	if !got.UpgradeUpdate {
		t.Fatalf("naive decision = %v, want UpgradeUpdate", got)
	}
}

func TestDecideNoFailuresNoAction(t *testing.T) {
	l := newLBC(usm.Weights{Cr: 1, Cfm: 1, Cfs: 1})
	if got := decide(l, usm.Counts{Success: 100}); !got.None() {
		t.Fatalf("all-success window produced %v", got)
	}
	if got := decide(l, usm.Counts{}); !got.None() {
		t.Fatalf("empty window produced %v", got)
	}
}

func TestDecideTieBreaksRandomly(t *testing.T) {
	// Equal costs for all three: across many decisions every branch should
	// appear (paper Fig. 2 line 4 breaks ties randomly).
	l := newLBC(usm.Weights{})
	counts := usm.Counts{Rejected: 3, DMF: 3, DSF: 3, Success: 1}
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		seen[decide(l, counts).String()] = true
	}
	if len(seen) < 3 {
		t.Fatalf("tie-break explored only %v", seen)
	}
}

func TestActionString(t *testing.T) {
	if (Action{}).String() != "none" {
		t.Fatal("empty action name")
	}
	a := Action{DegradeUpdate: true, TightenAC: true}
	if a.String() != "TAC DU" {
		t.Fatalf("action string = %q", a.String())
	}
}

// TestDecideTallyExplainedCosts pins the decision log's inputs: the
// returned costs are the window's average weighted penalties, and in the
// all-zero-weights fallback the raw failure ratios stand in.
func TestDecideTallyExplainedCosts(t *testing.T) {
	l := newLBC(usm.Weights{Cr: 0.5, Cfm: 1, Cfs: 0.25})
	var w usm.Tally
	w.Counts = usm.Counts{Success: 6, Rejected: 2, DMF: 1, DSF: 1}
	w.RCost = 0.5 * 2
	w.FmCost = 1 * 1
	w.FsCost = 0.25 * 1
	a, c := l.DecideTallyExplained(w)
	if c.R != 0.1 || c.Fm != 0.1 || c.Fs != 0.025 {
		t.Fatalf("costs = %+v, want averages over 10 queries", c)
	}
	if a.None() {
		t.Fatal("dominant cost produced no action")
	}

	// Zero-weight fallback: ratios stand in (Fig. 2 lines 2-3).
	l2 := newLBC(usm.Weights{})
	var z usm.Tally
	z.Counts = usm.Counts{Success: 5, DMF: 5}
	a2, c2 := l2.DecideTallyExplained(z)
	if c2.Fm != 0.5 || c2.R != 0 || c2.Fs != 0 {
		t.Fatalf("fallback costs = %+v, want DMF ratio 0.5", c2)
	}
	if !a2.DegradeUpdate || !a2.TightenAC {
		t.Fatalf("DMF-dominant fallback action = %v", a2)
	}

	// A clean window decides nothing and costs nothing.
	var clean usm.Tally
	clean.Counts = usm.Counts{Success: 10}
	a3, c3 := l2.DecideTallyExplained(clean)
	if !a3.None() || c3 != (Costs{}) {
		t.Fatalf("clean window: action %v costs %+v", a3, c3)
	}
}

// TestDecideAllocFree: a decision allocates nothing, including the
// three-way tie whose argmax set is largest. It runs once per control
// tick in every simulated cell, so a heap-allocated tie set would add one
// object per decision to the simulator's allocation count.
func TestDecideAllocFree(t *testing.T) {
	l := newLBC(usm.Weights{Cr: 1, Cfm: 1, Cfs: 1})
	var w usm.Tally
	w.Counts = usm.Counts{Success: 1, Rejected: 3, DMF: 3, DSF: 3}
	w.RCost, w.FmCost, w.FsCost = 3, 3, 3
	if a := testing.AllocsPerRun(100, func() { l.DecideTallyExplained(w) }); a != 0 {
		t.Fatalf("DecideTallyExplained allocated %v times per call", a)
	}
}
