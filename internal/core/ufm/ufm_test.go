package ufm

import (
	"math"
	"testing"
	"testing/quick"

	"unitdb/internal/stats"
)

func newMod(periods ...float64) *Modulator {
	return New(periods, stats.NewRNG(1))
}

func TestNewValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { New(nil, stats.NewRNG(1)) },
		func() { newMod(0) },
		func() { newMod(-1) },
		func() { New([]float64{1}, stats.NewRNG(1), WithConstants(0, 0.1, 0.5)) },
		func() { New([]float64{1}, stats.NewRNG(1), WithConstants(0.9, 0, 0.5)) },
		func() { New([]float64{1}, stats.NewRNG(1), WithConstants(0.9, 0.1, 2)) },
		func() { New([]float64{1}, stats.NewRNG(1), WithMaxDegrade(1)) },
		func() { New([]float64{1}, stats.NewRNG(1), WithGate(1)) },
		func() { New([]float64{1}, stats.NewRNG(1), WithGate(-0.1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid construction accepted")
				}
			}()
			fn()
		}()
	}
}

func TestInitialState(t *testing.T) {
	m := newMod(10, 20, math.Inf(1))
	if m.Len() != 3 {
		t.Fatalf("Len = %d", m.Len())
	}
	for i := 0; i < 3; i++ {
		if m.Ticket(i) != 0 {
			t.Fatal("tickets must start at zero")
		}
		if m.Period(i) != m.IdealPeriod(i) {
			t.Fatal("current period must start at ideal")
		}
		if m.DropRatio(i) != 0 {
			t.Fatal("no drops initially")
		}
	}
	if m.DegradedCount() != 0 {
		t.Fatal("degraded set must start empty")
	}
}

func TestOnQueryAccessEquation(t *testing.T) {
	// Eq. 6 + 8: T <- T*0.9 - qe/qt.
	m := newMod(10)
	m.OnQueryAccess(0, 2, 10) // DT = 0.2
	if got := m.Ticket(0); math.Abs(got-(-0.2)) > 1e-12 {
		t.Fatalf("ticket = %v, want -0.2", got)
	}
	m.OnQueryAccess(0, 2, 10)
	want := -0.2*0.9 - 0.2
	if got := m.Ticket(0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ticket = %v, want %v", got, want)
	}
}

func TestOnQueryAccessPanicsOnBadDeadline(t *testing.T) {
	m := newMod(10)
	defer func() {
		if recover() == nil {
			t.Fatal("qt=0 accepted")
		}
	}()
	m.OnQueryAccess(0, 1, 0)
}

func TestOnUpdateSigmoid(t *testing.T) {
	// Eq. 7 + 8: the first update has ue == ue_avg, so IT = 0.5.
	m := newMod(10)
	m.OnUpdate(0, 3)
	if got := m.Ticket(0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("ticket = %v, want 0.5", got)
	}
	if m.AvgUpdateExec() != 3 {
		t.Fatalf("ue_avg = %v", m.AvgUpdateExec())
	}
	// An expensive update (ue >> avg) adds close to 1; a cheap one close
	// to 0.
	m2 := newMod(10, 10)
	m2.OnUpdate(0, 1)
	m2.OnUpdate(1, 100) // avg becomes 50.5; sigmoid(100-50.5) ~ 1
	if got := m2.Ticket(1); got < 0.99 {
		t.Fatalf("expensive update IT = %v, want ~1", got)
	}
}

func TestTicketForgettingConverges(t *testing.T) {
	// The per-event forgetting bounds the ticket at ±magnitude/(1-Cforget).
	m := newMod(10)
	for i := 0; i < 1000; i++ {
		m.OnQueryAccess(0, 1, 10) // DT = 0.1, bound = -1
	}
	if got := m.Ticket(0); math.Abs(got-(-1)) > 1e-6 {
		t.Fatalf("ticket fixed point = %v, want -1", got)
	}
	updates, queries := m.EventsSeen()
	if updates != 0 || queries != 1000 {
		t.Fatalf("EventsSeen = %d,%d", updates, queries)
	}
}

func TestDegradeStretchesPeriod(t *testing.T) {
	m := New([]float64{10}, stats.NewRNG(1), WithGate(0))
	m.OnUpdate(0, 1) // make it the (only) lottery mass
	victim, ok := m.Degrade()
	if !ok || victim != 0 {
		t.Fatalf("Degrade = %d,%v", victim, ok)
	}
	if got := m.Period(0); math.Abs(got-11) > 1e-9 {
		t.Fatalf("period = %v, want 11 (Eq. 9 with C_du=0.1)", got)
	}
	if m.DegradedCount() != 1 {
		t.Fatal("degraded set not updated")
	}
	if got := m.DropRatio(0); math.Abs(got-(1-10.0/11)) > 1e-9 {
		t.Fatalf("DropRatio = %v", got)
	}
}

func TestDegradeSkipsFeedlessItems(t *testing.T) {
	m := New([]float64{math.Inf(1)}, stats.NewRNG(1), WithGate(0))
	if _, ok := m.Degrade(); ok {
		t.Fatal("degraded an item without an update feed")
	}
	if m.DropRatio(0) != 0 {
		t.Fatal("feedless item has a drop ratio")
	}
}

func TestDegradeCap(t *testing.T) {
	m := New([]float64{10}, stats.NewRNG(1), WithGate(0), WithMaxDegrade(4))
	m.OnUpdate(0, 1)
	m.DegradeN(1000)
	if got := m.Period(0); got != 40 {
		t.Fatalf("period = %v, want capped at 40", got)
	}
}

func TestGateProtectsHotItems(t *testing.T) {
	// Item 0 is hot (many accesses, ticket at the minimum); item 1 is cold
	// and update-heavy. With the gate, only item 1 may be degraded.
	m := New([]float64{10, 10}, stats.NewRNG(1)) // default gate 0.5
	for i := 0; i < 200; i++ {
		m.OnQueryAccess(0, 1, 2) // hot: ticket -> -2.5
	}
	for i := 0; i < 10; i++ {
		m.OnUpdate(1, 1) // cold: ticket -> ~+3.2
	}
	hits := m.DegradeN(500)
	if hits == 0 {
		t.Fatal("no victims at all")
	}
	if m.Period(0) != 10 {
		t.Fatalf("hot item degraded to period %v", m.Period(0))
	}
	if m.Period(1) <= 10 {
		t.Fatal("cold item not degraded")
	}
}

func TestHysteresisBypassesGate(t *testing.T) {
	// Degrade an item deep while eligible, then make it ineligible; it must
	// continue to accept degradation (committed victims stay victims).
	m := New([]float64{10, 10}, stats.NewRNG(1))
	m.OnUpdate(0, 1)
	for m.Period(0) <= 25 { // push beyond 2x
		if _, ok := m.Degrade(); !ok {
			t.Fatal("initial degradation failed")
		}
	}
	// Now make item 0's ticket the minimum (ineligible by gate).
	for i := 0; i < 300; i++ {
		m.OnQueryAccess(0, 1, 2)
	}
	for i := 0; i < 10; i++ {
		m.OnUpdate(1, 1)
	}
	before := m.Period(0)
	// Draws that land on item 0 must still stick.
	m.DegradeN(500)
	if m.Period(0) < before {
		t.Fatal("period shrank without an upgrade")
	}
	if m.Period(0) == before {
		t.Skip("lottery never drew the committed item; acceptable but uninformative")
	}
}

func TestUpgradeArithmeticStep(t *testing.T) {
	m := New([]float64{10}, stats.NewRNG(1), WithGate(0))
	m.OnUpdate(0, 1)
	m.DegradeN(8) // period = 10*1.1^8 ~ 21.4
	p := m.Period(0)
	moved := m.Upgrade()
	if moved != 1 {
		t.Fatalf("moved = %d", moved)
	}
	if got := m.Period(0); math.Abs(got-(p-5)) > 1e-9 {
		t.Fatalf("period = %v, want %v (Eq. 10: pc - C_uu*pi)", got, p-5)
	}
	// Repeated upgrades restore the ideal period and clear the set.
	for i := 0; i < 10; i++ {
		m.Upgrade()
	}
	if m.Period(0) != 10 || m.DegradedCount() != 0 {
		t.Fatalf("not restored: period=%v degraded=%d", m.Period(0), m.DegradedCount())
	}
}

func TestStatsCounters(t *testing.T) {
	m := New([]float64{10}, stats.NewRNG(1), WithGate(0))
	m.OnUpdate(0, 1)
	m.DegradeN(3)
	m.Upgrade()
	deg, upg := m.Stats()
	if deg != 3 || upg != 1 {
		t.Fatalf("stats = %d,%d", deg, upg)
	}
}

func TestSetIdealPeriodPreservesRatio(t *testing.T) {
	m := New([]float64{10}, stats.NewRNG(1), WithGate(0))
	m.OnUpdate(0, 1)
	m.DegradeN(8)
	ratio := m.Period(0) / m.IdealPeriod(0)
	m.SetIdealPeriod(0, 20)
	if m.IdealPeriod(0) != 20 {
		t.Fatal("ideal not updated")
	}
	if math.Abs(m.Period(0)/20-ratio) > 1e-9 {
		t.Fatalf("degradation ratio not preserved: %v vs %v", m.Period(0)/20, ratio)
	}
	// From infinity: current snaps to the new ideal.
	m2 := newMod(math.Inf(1))
	m2.SetIdealPeriod(0, 5)
	if m2.Period(0) != 5 {
		t.Fatalf("period = %v", m2.Period(0))
	}
}

func TestPeriodNeverBelowIdealProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 1 + rng.Intn(16)
		periods := make([]float64, n)
		for i := range periods {
			periods[i] = 1 + rng.Float64()*100
		}
		m := New(periods, rng.Split(), WithGate(0))
		for op := 0; op < 300; op++ {
			i := rng.Intn(n)
			switch rng.Intn(4) {
			case 0:
				m.OnQueryAccess(i, rng.Float64()*5, 1+rng.Float64()*10)
			case 1:
				m.OnUpdate(i, rng.Float64()*10)
			case 2:
				m.Degrade()
			case 3:
				m.Upgrade()
			}
			for j := 0; j < n; j++ {
				if m.Period(j) < m.IdealPeriod(j)*(1-1e-12) {
					return false
				}
				if m.Period(j) > m.IdealPeriod(j)*DefaultMaxDegrade*(1+1e-9) {
					return false
				}
				if r := m.DropRatio(j); r < 0 || r >= 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDegradeNMatchesDegrade pins the batch draw to its definition: on a
// twin built from the same ledger and seed, DegradeN(n) must leave exactly
// the state n single Degrade calls leave — every period, the degraded set,
// the counters, the hit count and the rng position.
func TestDegradeNMatchesDegrade(t *testing.T) {
	capped, committed := 0, 0 // coverage: items the equivalence met on the cap and past 2×
	f := func(seed uint64, gateOff bool) bool {
		rng := stats.NewRNG(seed)
		n := 1 + rng.Intn(40)
		periods := make([]float64, n)
		for i := range periods {
			periods[i] = 1 + rng.Float64()*100
			if rng.Intn(5) == 0 {
				periods[i] = math.Inf(1) // no feed: drawn but never stretched
			}
		}
		var opts []Option
		if gateOff {
			opts = append(opts, WithGate(0))
		}
		rngA, rngB := stats.NewRNG(seed+1), stats.NewRNG(seed+1)
		a, b := New(periods, rngA, opts...), New(periods, rngB, opts...)
		for round := 0; round < 12; round++ {
			for op := rng.Intn(4 * n); op > 0; op-- {
				i, qe, qt, ue := rng.Intn(n), rng.Float64()*5, 1+rng.Float64()*10, rng.Float64()*10
				if rng.Intn(2) == 0 {
					a.OnQueryAccess(i, qe, qt)
					b.OnQueryAccess(i, qe, qt)
				} else {
					a.OnUpdate(i, ue)
					b.OnUpdate(i, ue)
				}
			}
			// Batches large against n push items past the 2× hysteresis
			// and onto the 64·pi cap; odd sizes leave a lane remainder.
			batch := rng.Intn(30 * n)
			hitA, hitB := a.DegradeN(batch), 0
			for k := 0; k < batch; k++ {
				if _, ok := b.Degrade(); ok {
					hitB++
				}
			}
			if hitA != hitB {
				t.Logf("round %d: DegradeN hit %d, Degrade loop %d", round, hitA, hitB)
				return false
			}
			if rng.Intn(3) == 0 && a.Upgrade() != b.Upgrade() {
				return false
			}
			if !sameModState(t, a, b) {
				return false
			}
			for i := 0; i < n; i++ {
				if a.Period(i) == a.IdealPeriod(i)*DefaultMaxDegrade {
					capped++
				} else if a.Period(i) > 2*a.IdealPeriod(i) {
					committed++
				}
			}
		}
		return rngA.Float64() == rngB.Float64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	if capped == 0 || committed == 0 {
		t.Fatalf("ledgers never reached the cap (%d) or the hysteresis band (%d)", capped, committed)
	}
}

func sameModState(t *testing.T, a, b *Modulator) bool {
	above := 0 // the degraded set is exactly the items above their ideal period
	for i := 0; i < a.Len(); i++ {
		if a.Period(i) != b.Period(i) {
			t.Logf("item %d: period %v vs %v", i, a.Period(i), b.Period(i))
			return false
		}
		if a.Period(i) > a.IdealPeriod(i) {
			above++
		}
	}
	if a.DegradedCount() != above {
		t.Logf("DegradedCount %d, %d items above their ideal period", a.DegradedCount(), above)
		return false
	}
	da, ua := a.Stats()
	db, ub := b.Stats()
	if a.DegradedCount() != b.DegradedCount() || da != db || ua != ub {
		t.Logf("degraded %d vs %d, stats %d/%d vs %d/%d", a.DegradedCount(), b.DegradedCount(), da, ua, db, ub)
		return false
	}
	return true
}

func TestStrideSelectionAblation(t *testing.T) {
	// Stride selection must, like the lottery, direct degradation at the
	// high-ticket (cold, update-heavy) items and spare the hot item.
	m := New([]float64{10, 10, 10}, stats.NewRNG(1), WithStrideSelection(16))
	for i := 0; i < 200; i++ {
		m.OnQueryAccess(0, 1, 2) // hot
	}
	for i := 0; i < 10; i++ {
		m.OnUpdate(1, 1)
		m.OnUpdate(2, 1)
	}
	hits := m.DegradeN(200)
	if hits == 0 {
		t.Fatal("stride selection degraded nothing")
	}
	if m.Period(0) != 10 {
		t.Fatalf("hot item degraded under stride selection: %v", m.Period(0))
	}
	if m.Period(1) <= 10 && m.Period(2) <= 10 {
		t.Fatal("no cold item degraded")
	}
}

func TestStrideSelectionDeterministic(t *testing.T) {
	run := func() (float64, float64) {
		m := New([]float64{10, 10}, stats.NewRNG(9), WithStrideSelection(8))
		m.OnUpdate(0, 1)
		m.OnUpdate(1, 2)
		m.DegradeN(50)
		return m.Period(0), m.Period(1)
	}
	a0, a1 := run()
	b0, b1 := run()
	if a0 != b0 || a1 != b1 {
		t.Fatal("stride selection not deterministic")
	}
}
