// Package ufm implements UNIT's Update Frequency Modulation (paper §3.4).
// Each data item carries a lottery ticket value. Query accesses decrease it
// by DT = qe/qt (Eq. 6) — items needed by CPU-hungry queries are poor
// victims. Source updates increase it by the sigmoid
// IT = 1/(1+e^{ue_avg−ue_j}) (Eq. 7) — frequently and expensively updated
// items are good victims. Both adjustments apply exponential forgetting
// with C_forget = 0.9 (Eq. 8).
//
// On a Degrade signal the modulator draws victims by lottery over the
// min-shifted tickets and stretches each victim's current period:
// pc ← pc·(1+C_du) (Eq. 9). On an Upgrade signal every degraded period
// shrinks back toward the ideal: pc ← max(pi, pc − C_uu·pi) (Eq. 10; see
// DESIGN.md on the paper's min/max typo), with C_uu = 0.5.
package ufm

import (
	"fmt"
	"math"
	"sort"

	"unitdb/internal/lottery"
	"unitdb/internal/stats"
)

// Defaults from the paper's experiments.
const (
	DefaultCForget = 0.9 // forgetting factor (§3.4.1)
	DefaultCDu     = 0.1 // degrade step (Eq. 9)
	DefaultCUu     = 0.5 // upgrade step (Eq. 10)

	// DefaultMaxDegrade caps pc at this multiple of pi. Unbounded Eq. 9
	// compounding sends periods to astronomic values within a few thousand
	// draws, where the arithmetic Upgrade step (−C_uu·pi per sweep) could
	// never recover an item mistakenly degraded before the ticket ledger
	// differentiated. At 64× the item already skips ~98% of its updates —
	// degradation is saturated for every practical purpose — while a
	// recovery stays within ~126 Upgrade sweeps.
	DefaultMaxDegrade = 64

	// DefaultGate is the victim-eligibility threshold, expressed as a
	// fraction of the distance from the minimum ticket to the mean: a
	// drawn item is degraded only if its ticket reaches min + gate·(mean −
	// min). Zero reproduces the paper's plain min-shifted lottery.
	DefaultGate = 0.5
)

// Modulator holds per-item ticket values and update periods.
type Modulator struct {
	tickets *lottery.Sampler
	ideal   []float64 // pi_j; +Inf when the item receives no updates
	current []float64 // pc_j >= pi_j
	ueAvg   stats.Welford
	rng     *stats.RNG

	cforget    float64
	cdu        float64
	cuu        float64
	maxDegrade float64
	gate       float64 // eligibility threshold as a fraction of (mean−min)

	degraded    []bool // item i runs above its ideal period
	nDegraded   int    // count of true entries in degraded
	degrades    int    // cumulative degrade steps applied
	upgrades    int    // cumulative upgrade sweeps
	updatesSeen int    // source updates folded into tickets
	queriesSeen int    // query accesses folded into tickets

	useStride          bool
	stride             *lottery.Stride
	strideAge          int // draws since the stride weights were rebuilt
	strideRebuildEvery int

	us      []float64 // DegradeN's variates, reused across batches
	victims []int     // DegradeN's draws, reused across batches
}

// Option configures a Modulator.
type Option func(*Modulator)

// WithStrideSelection replaces the randomized lottery draw with stride
// scheduling, its deterministic proportional-share counterpart from the
// same Waldspurger report the paper cites — an ablation of the paper's
// choice of "Lottery Scheduling for efficiency and fairness" (§5). The
// stride pass weights are rebuilt from the ticket ledger every rebuildEvery
// draws (default 256 when <= 0).
func WithStrideSelection(rebuildEvery int) Option {
	return func(m *Modulator) {
		m.useStride = true
		if rebuildEvery <= 0 {
			rebuildEvery = 256
		}
		m.strideAge = rebuildEvery // force an initial build
		m.strideRebuildEvery = rebuildEvery
	}
}

// WithGate overrides the victim-eligibility fraction (default DefaultGate;
// 0 disables the gate, reproducing the paper's plain min-shifted lottery).
func WithGate(gate float64) Option {
	return func(m *Modulator) {
		if gate < 0 || gate >= 1 {
			panic(fmt.Sprintf("ufm: gate %v out of [0,1)", gate))
		}
		m.gate = gate
	}
}

// WithMaxDegrade overrides the cap on pc/pi (default DefaultMaxDegrade).
func WithMaxDegrade(factor float64) Option {
	return func(m *Modulator) {
		if factor <= 1 {
			panic(fmt.Sprintf("ufm: max degrade factor %v must exceed 1", factor))
		}
		m.maxDegrade = factor
	}
}

// WithConstants overrides C_forget, C_du and C_uu.
func WithConstants(cforget, cdu, cuu float64) Option {
	return func(m *Modulator) {
		if cforget <= 0 || cforget > 1 {
			panic(fmt.Sprintf("ufm: C_forget %v out of (0,1]", cforget))
		}
		if cdu <= 0 {
			panic(fmt.Sprintf("ufm: non-positive C_du %v", cdu))
		}
		if cuu <= 0 || cuu > 1 {
			panic(fmt.Sprintf("ufm: C_uu %v out of (0,1]", cuu))
		}
		m.cforget, m.cdu, m.cuu = cforget, cdu, cuu
	}
}

// New creates a modulator for the given ideal update periods (one per data
// item; use math.Inf(1) for items without updates). rng drives the lottery.
func New(idealPeriods []float64, rng *stats.RNG, opts ...Option) *Modulator {
	if len(idealPeriods) == 0 {
		panic("ufm: no data items")
	}
	m := &Modulator{
		tickets:    lottery.NewSampler(len(idealPeriods)),
		ideal:      make([]float64, len(idealPeriods)),
		current:    make([]float64, len(idealPeriods)),
		rng:        rng,
		cforget:    DefaultCForget,
		cdu:        DefaultCDu,
		cuu:        DefaultCUu,
		maxDegrade: DefaultMaxDegrade,
		gate:       DefaultGate,
		degraded:   make([]bool, len(idealPeriods)),
	}
	for i, p := range idealPeriods {
		if p <= 0 {
			panic(fmt.Sprintf("ufm: non-positive ideal period %v for item %d", p, i))
		}
		m.ideal[i] = p
		m.current[i] = p
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Len returns the number of data items.
func (m *Modulator) Len() int { return len(m.ideal) }

// Ticket returns the current ticket value of item i.
func (m *Modulator) Ticket(i int) float64 { return m.tickets.Ticket(i) }

// IdealPeriod returns pi_i.
func (m *Modulator) IdealPeriod(i int) float64 { return m.ideal[i] }

// SetIdealPeriod re-bases item i's ideal period, preserving the current
// degradation ratio pc/pi. The live server uses this to learn feed periods
// online from observed inter-arrival times.
func (m *Modulator) SetIdealPeriod(i int, p float64) {
	if p <= 0 {
		panic(fmt.Sprintf("ufm: non-positive ideal period %v", p))
	}
	ratio := 1.0
	if !math.IsInf(m.ideal[i], 1) && m.ideal[i] > 0 {
		ratio = m.current[i] / m.ideal[i]
	}
	m.ideal[i] = p
	m.current[i] = p * ratio
}

// Period returns the current update period pc_i.
func (m *Modulator) Period(i int) float64 { return m.current[i] }

// DegradedCount returns how many items currently run above their ideal
// period.
func (m *Modulator) DegradedCount() int { return m.nDegraded }

// Stats returns cumulative degrade steps and upgrade sweeps.
func (m *Modulator) Stats() (degrades, upgrades int) { return m.degrades, m.upgrades }

// OnQueryAccess folds a committed query access of item i into the ticket:
// T ← T·C_forget − qe/qt (Eqs. 6 and 8). qt must be positive.
func (m *Modulator) OnQueryAccess(i int, qe, qt float64) {
	if qt <= 0 {
		panic(fmt.Sprintf("ufm: non-positive relative deadline %v", qt))
	}
	dt := qe / qt
	m.queriesSeen++
	m.tickets.Set(i, m.tickets.Ticket(i)*m.cforget-dt)
}

// OnUpdate folds one source update of item i with execution time ue into
// the ticket: T ← T·C_forget + 1/(1+e^{ue_avg−ue}) (Eqs. 7 and 8), and
// refreshes the running average update execution time.
func (m *Modulator) OnUpdate(i int, ue float64) {
	m.updatesSeen++
	m.ueAvg.Add(ue)
	it := 1 / (1 + math.Exp(m.ueAvg.Mean()-ue))
	m.tickets.Set(i, m.tickets.Ticket(i)*m.cforget+it)
}

// AvgUpdateExec returns the running mean update execution time (ue_avg).
func (m *Modulator) AvgUpdateExec() float64 { return m.ueAvg.Mean() }

// EventsSeen returns how many source updates and query accesses have been
// folded into the ticket ledger.
func (m *Modulator) EventsSeen() (updates, queries int) {
	return m.updatesSeen, m.queriesSeen
}

// Degrade draws one victim by lottery over the min-shifted tickets and
// stretches its current period by C_du (Eq. 9). It returns the victim; ok
// is false when no item is eligible (all tickets equal and none updated).
func (m *Modulator) Degrade() (victim int, ok bool) {
	i := m.drawVictim()
	return i, m.stretch(i, m.threshold())
}

// threshold returns the ticket a drawn item must reach to be degraded:
// the minimum plus gate·(mean − min). Only the ticket ledger enters it, and
// a Degrade batch leaves the ledger alone.
func (m *Modulator) threshold() float64 {
	mean := m.tickets.Sum() / float64(m.tickets.Len())
	return m.tickets.Min() + m.gate*(mean-m.tickets.Min())
}

// stretch applies one draw of item i: unless the item has no updates or
// the gate rejects it, its period grows by C_du up to the cap. It reports
// whether the period was stretched.
func (m *Modulator) stretch(i int, threshold float64) bool {
	if math.IsInf(m.ideal[i], 1) {
		// The item receives no updates; stretching its period is a no-op.
		// Count it as a draw but report no victim.
		return false
	}
	committed := m.current[i] > 2*m.ideal[i] // hysteresis: deep victims stay victims
	if m.gate > 0 && !committed && m.tickets.Ticket(i) < threshold {
		// Reject draws in the lower half of the ticket range (below the
		// midpoint of the minimum and the mean). The paper's min-shift
		// alone leaves every non-minimum item with some winning
		// probability, and over thousands of draws even well-accessed
		// items accumulate period stretches whose staleness lingers for a
		// full update period. Query-heavy items live near the ticket
		// minimum (Eq. 6 drives them down on every access) while the cold
		// mass sits near or above the mean, so this gate excludes exactly
		// the items whose staleness queries would observe, keeping the
		// realized drop distribution aligned with the access distribution
		// (paper Fig. 3). Items already degraded beyond 2× bypass the gate:
		// without that hysteresis, items whose tickets hover at the
		// threshold churn between half-degraded and restored — paying for
		// most of their updates while still serving stale reads.
		return false
	}
	m.current[i] *= 1 + m.cdu
	if cap := m.ideal[i] * m.maxDegrade; m.current[i] > cap {
		m.current[i] = cap
	}
	if !m.degraded[i] {
		m.degraded[i] = true
		m.nDegraded++
	}
	m.degrades++
	return true
}

// drawVictim picks a candidate index: a lottery draw over the min-shifted
// tickets, or — under WithStrideSelection — the next client of a stride
// scheduler rebuilt periodically from the same shifted weights.
func (m *Modulator) drawVictim() int {
	if !m.useStride {
		return m.tickets.Sample(m.rng.Float64())
	}
	if m.strideAge >= m.strideRebuildEvery || m.stride == nil || m.stride.Len() == 0 {
		m.rebuildStride()
	}
	m.strideAge++
	if m.stride.Len() == 0 {
		// Degenerate weights: fall back to the lottery's uniform draw.
		return m.tickets.Sample(m.rng.Float64())
	}
	return m.stride.Next()
}

func (m *Modulator) rebuildStride() {
	m.stride = lottery.NewStride()
	m.strideAge = 0
	type iw struct {
		i int
		w float64
	}
	var ws []iw
	for i := 0; i < m.tickets.Len(); i++ {
		if w := m.tickets.Weight(i); w > 1e-12 {
			ws = append(ws, iw{i, w})
		}
	}
	// Deterministic join order for reproducibility.
	sort.Slice(ws, func(a, b int) bool { return ws[a].i < ws[b].i })
	for _, x := range ws {
		m.stride.Join(x.i, x.w)
	}
}

// DegradeN performs n lottery draws (the controller's actuation batch).
// It returns how many draws stretched a period. The batch changes no
// ticket, so it equals n calls of Degrade: the n variates come off the rng
// in the same order, one SampleN pass draws every victim over the
// unchanged tree, and the victims are applied in draw order.
func (m *Modulator) DegradeN(n int) int {
	hit := 0
	if m.useStride {
		for k := 0; k < n; k++ {
			if _, ok := m.Degrade(); ok {
				hit++
			}
		}
		return hit
	}
	if n <= 0 {
		return 0
	}
	if cap(m.us) < n {
		m.us, m.victims = make([]float64, n), make([]int, n)
	}
	us, victims := m.us[:n], m.victims[:n]
	for k := range us {
		us[k] = m.rng.Float64()
	}
	m.tickets.SampleN(us, victims)
	threshold := m.threshold()
	for _, i := range victims {
		if m.stretch(i, threshold) {
			hit++
		}
	}
	return hit
}

// Upgrade shrinks every degraded period one step toward its ideal
// (Eq. 10): pc ← max(pi, pc − C_uu·pi). Together with the multiplicative
// Degrade step this arithmetic decrement makes the modulation bistable in
// exactly the way the paper needs: a lightly-degraded item (a hot item
// that picked up stray lottery draws, pc ≤ 2·pi) snaps back to its ideal
// period within a couple of sweeps, while a deeply-degraded cold item
// (pc ≫ pi) barely moves — so the lottery decides which items stay
// degraded and the Upgrade signal cannot erase the controller's
// accumulated load shedding. Items reaching their ideal period leave the
// degraded set. It returns how many items moved.
func (m *Modulator) Upgrade() int {
	moved := 0
	for i, d := range m.degraded {
		if !d {
			continue
		}
		next := m.current[i] - m.cuu*m.ideal[i]
		if next <= m.ideal[i] {
			next = m.ideal[i]
			m.degraded[i] = false
			m.nDegraded--
		}
		if next != m.current[i] {
			moved++
		}
		m.current[i] = next
	}
	m.upgrades++
	return moved
}

// DropRatio returns the fraction of source updates currently being skipped
// for item i: 1 − pi/pc.
func (m *Modulator) DropRatio(i int) float64 {
	if math.IsInf(m.ideal[i], 1) {
		return 0
	}
	return 1 - m.ideal[i]/m.current[i]
}
