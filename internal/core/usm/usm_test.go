package usm

import (
	"math"
	"testing"
	"testing/quick"

	"unitdb/internal/txn"
)

func TestWeightsValidate(t *testing.T) {
	if err := (Weights{}).Validate(); err != nil {
		t.Fatalf("zero weights invalid: %v", err)
	}
	if err := (Weights{Cr: 1, Cfm: 2, Cfs: 3}).Validate(); err != nil {
		t.Fatalf("positive weights invalid: %v", err)
	}
	if err := (Weights{Cr: -1}).Validate(); err == nil {
		t.Fatal("negative penalty accepted")
	}
	if err := (Weights{Cfm: math.NaN()}).Validate(); err == nil {
		t.Fatal("NaN penalty accepted")
	}
}

func TestWeightsZeroAndRange(t *testing.T) {
	if !(Weights{}).Zero() {
		t.Fatal("zero weights not detected")
	}
	if (Weights{Cfs: 0.1}).Zero() {
		t.Fatal("non-zero weights reported zero")
	}
	w := Weights{Cr: 0.5, Cfm: 2, Cfs: 1}
	if w.MaxPenalty() != 2 {
		t.Fatalf("MaxPenalty = %v", w.MaxPenalty())
	}
	if w.Range() != 3 {
		t.Fatalf("Range = %v", w.Range())
	}
	if (Weights{}).Range() != 1 {
		t.Fatal("naive range must be 1")
	}
}

func TestCountsRecordAndTotal(t *testing.T) {
	var c Counts
	c.Record(txn.OutcomeSuccess)
	c.Record(txn.OutcomeSuccess)
	c.Record(txn.OutcomeRejected)
	c.Record(txn.OutcomeDMF)
	c.Record(txn.OutcomeDSF)
	if c.Success != 2 || c.Rejected != 1 || c.DMF != 1 || c.DSF != 1 {
		t.Fatalf("counts = %+v", c)
	}
	if c.Total() != 5 {
		t.Fatalf("total = %d", c.Total())
	}
}

func TestRecordPendingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("recording pending outcome did not panic")
		}
	}()
	var c Counts
	c.Record(txn.OutcomePending)
}

func TestRatios(t *testing.T) {
	c := Counts{Success: 6, Rejected: 2, DMF: 1, DSF: 1}
	rs, rr, rfm, rfs := c.Ratios()
	if rs != 0.6 || rr != 0.2 || rfm != 0.1 || rfs != 0.1 {
		t.Fatalf("ratios = %v %v %v %v", rs, rr, rfm, rfs)
	}
	rs, rr, rfm, rfs = Counts{}.Ratios()
	if rs != 0 || rr != 0 || rfm != 0 || rfs != 0 {
		t.Fatal("empty counts should give zero ratios")
	}
}

func TestUSMEquation(t *testing.T) {
	// Eq. 5 on a worked example.
	c := Counts{Success: 5, Rejected: 2, DMF: 2, DSF: 1}
	w := Weights{Cr: 0.5, Cfm: 1, Cfs: 2}
	// (5 - 0.5*2 - 1*2 - 2*1) / 10 = 0/10 = 0
	if got := c.USM(w); got != 0 {
		t.Fatalf("USM = %v, want 0", got)
	}
	// Naive: USM == success ratio.
	if got := c.USM(Weights{}); got != 0.5 {
		t.Fatalf("naive USM = %v, want 0.5", got)
	}
	if (Counts{}).USM(w) != 0 {
		t.Fatal("empty counts should give 0")
	}
}

func TestUSMBoundsProperty(t *testing.T) {
	// §2.3.2: USM always lies in [-max(Cr,Cfm,Cfs), 1].
	f := func(s, r, fm, fs uint8, cr, cfm, cfs float64) bool {
		clamp := func(x float64) float64 {
			x = math.Abs(x)
			if !(x < 100) { // also catches NaN and Inf
				return math.Mod(x, 100)
			}
			return x
		}
		w := Weights{Cr: clamp(cr), Cfm: clamp(cfm), Cfs: clamp(cfs)}
		c := Counts{Success: int(s), Rejected: int(r), DMF: int(fm), DSF: int(fs)}
		if c.Total() == 0 {
			return true
		}
		u := c.USM(w)
		return u <= 1+1e-9 && u >= -w.MaxPenalty()-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUSMExtremes(t *testing.T) {
	w := Weights{Cr: 1, Cfm: 3, Cfs: 2}
	all := Counts{Success: 10}
	if all.USM(w) != 1 {
		t.Fatal("all-success must give 1")
	}
	worst := Counts{DMF: 10}
	if worst.USM(w) != -3 {
		t.Fatalf("all-DMF = %v, want -3 (the most annoying failure)", worst.USM(w))
	}
}

func TestAccountantWindows(t *testing.T) {
	a := NewAccountant(Weights{Cfm: 2})
	a.Record(txn.OutcomeSuccess)
	a.Record(txn.OutcomeDMF)
	if a.Window().Total() != 2 || a.Total().Total() != 2 {
		t.Fatal("window/total mismatch")
	}
	win := a.Rollover()
	if win.Total() != 2 {
		t.Fatalf("rolled window total = %d", win.Total())
	}
	if a.Window().Total() != 0 {
		t.Fatal("rollover did not reset the window")
	}
	a.Record(txn.OutcomeSuccess)
	if a.Total().Total() != 3 {
		t.Fatal("cumulative lost after rollover")
	}
	if got := a.TotalUSM(); math.Abs(got-(2.0-2.0)/3.0) > 1e-12 {
		t.Fatalf("TotalUSM = %v", got)
	}
	if a.Weights().Cfm != 2 {
		t.Fatal("weights accessor wrong")
	}
}

func TestAccountantRejectsBadWeights(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative weights accepted")
		}
	}()
	NewAccountant(Weights{Cr: -1})
}

func TestCountsAdd(t *testing.T) {
	a := Counts{Success: 1, Rejected: 2}
	a.Add(Counts{Success: 3, DMF: 4, DSF: 5})
	if a.Success != 4 || a.Rejected != 2 || a.DMF != 4 || a.DSF != 5 {
		t.Fatalf("Add result %+v", a)
	}
}
