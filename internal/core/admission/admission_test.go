package admission

import (
	"math"
	"slices"
	"testing"

	"unitdb/internal/core/usm"
	"unitdb/internal/readyq"
	"unitdb/internal/stats"
	"unitdb/internal/txn"
)

// fakeView is a hand-built admission.QueueView.
type fakeView struct {
	running float64
	backlog float64
	queued  []*txn.Txn
}

func (v fakeView) RunningRemaining() float64 { return v.running }
func (v fakeView) UpdateBacklog() float64    { return v.backlog }
func (v fakeView) QueuedQueries() []*txn.Txn { return v.queued }

func query(id int64, now, exec, rel float64) *txn.Txn {
	return txn.NewQuery(id, now, []int{0}, exec, rel, 0.9)
}

func TestDeadlineCheckAdmitsFeasible(t *testing.T) {
	c := New(usm.Weights{})
	q := query(1, 0, 1, 10) // needs 1s, has 10s
	if got := c.Admit(0, q, fakeView{}); got != Admitted {
		t.Fatalf("empty system rejected feasible query: %v", got)
	}
}

func TestDeadlineCheckRejectsInfeasible(t *testing.T) {
	c := New(usm.Weights{})
	q := query(1, 0, 5, 3) // needs 5s, has 3s
	if got := c.Admit(0, q, fakeView{}); got != RejectedDeadline {
		t.Fatalf("infeasible query admitted: %v", got)
	}
}

func TestDeadlineCheckCountsBacklog(t *testing.T) {
	c := New(usm.Weights{})
	q := query(1, 0, 1, 5)
	// 3 (running) + 2 (updates) + 1 (exec) > 5.
	if got := c.Admit(0, q, fakeView{running: 3, backlog: 2}); got != RejectedDeadline {
		t.Fatalf("backlog ignored: %v", got)
	}
	if got := c.Admit(0, q, fakeView{running: 1, backlog: 1}); got != Admitted {
		t.Fatalf("feasible with small backlog rejected: %v", got)
	}
}

func TestDeadlineCheckCountsEarlierQueries(t *testing.T) {
	c := New(usm.Weights{})
	earlier := query(1, 0, 3, 4)  // deadline 4
	cand := query(2, 0, 1, 3.5)   // deadline 3.5: earlier than the queued one
	later := query(3, 0, 10, 100) // behind the candidate
	// cand outranks "earlier"? No: deadline 3.5 < 4, so "earlier" is behind
	// cand and must not count toward cand's EST.
	view := fakeView{queued: []*txn.Txn{earlier, later}}
	if got := c.Admit(0, cand, view); got != Admitted {
		t.Fatalf("EST included lower-priority queries: %v", got)
	}
	// A candidate behind the deadline-4 query sees its 3s of work:
	// EST = 3, and 3 + 2.5 >= 5 rejects.
	cand2 := query(4, 0, 2.5, 5)
	if got := c.Admit(0, cand2, view); got != RejectedDeadline {
		t.Fatalf("EST ignored higher-priority queries: %v", got)
	}
}

func TestCFlexScalesEST(t *testing.T) {
	c := New(usm.Weights{})
	q := query(1, 0, 1, 6)
	view := fakeView{backlog: 4.5} // 1*4.5 + 1 < 6 admits
	if got := c.Admit(0, q, view); got != Admitted {
		t.Fatalf("baseline admit failed: %v", got)
	}
	// Tighten enough that cflex*4.5 + 1 >= 6, i.e. cflex >= 1.111…
	c.Tighten() // 1.1
	c.Tighten() // 1.21
	q2 := query(2, 0, 1, 6)
	if got := c.Admit(0, q2, view); got != RejectedDeadline {
		t.Fatalf("tightened controller admitted: %v (cflex=%v)", got, c.CFlex())
	}
	// Loosen back below the threshold.
	c.Loosen()
	c.Loosen()
	q3 := query(3, 0, 1, 6)
	if got := c.Admit(0, q3, view); got != Admitted {
		t.Fatalf("loosened controller rejected: %v (cflex=%v)", got, c.CFlex())
	}
}

func TestCFlexBoundsAndAtFloor(t *testing.T) {
	c := New(usm.Weights{}, WithFlexBounds(0.5, 2))
	for i := 0; i < 100; i++ {
		c.Tighten()
	}
	if c.CFlex() != 2 {
		t.Fatalf("cflex above max: %v", c.CFlex())
	}
	for i := 0; i < 100; i++ {
		c.Loosen()
	}
	if c.CFlex() != 0.5 {
		t.Fatalf("cflex below min: %v", c.CFlex())
	}
	if !c.AtFloor() {
		t.Fatal("AtFloor false at the floor")
	}
	c.Tighten()
	if c.AtFloor() {
		t.Fatal("AtFloor true off the floor")
	}
}

func TestUSMCheckRejectsWhenEndangeringCostlyQueries(t *testing.T) {
	// Cfm=1, Cr=0.2: endangering even one queued query outweighs rejecting.
	c := New(usm.Weights{Cr: 0.2, Cfm: 1})
	// Queued query: exec 2, deadline 4; alone it finishes at 2 < 4 (safe).
	queued := query(1, 0, 2, 4)
	// Candidate: deadline 1 (outranks queued), exec 2.5. The queued query
	// would then finish at 4.5 >= 4: newly endangered.
	cand := query(2, 0, 0.5, 1)
	cand.EstExec = 2.5
	cand.Exec = 2.5
	cand.Remaining = 2.5
	// Deadline check for cand: EST=0, 2.5 < 1? No! Give it a longer
	// deadline but keep it ahead of queued.
	cand.Deadline = 3
	cand.RelDeadline = 3
	got := c.Admit(0, cand, fakeView{queued: []*txn.Txn{queued}})
	if got != RejectedUSM {
		t.Fatalf("USM check did not fire: %v", got)
	}
}

func TestUSMCheckAdmitsWhenRejectionCostlier(t *testing.T) {
	// Cr much larger than Cfm: admit even when endangering.
	c := New(usm.Weights{Cr: 5, Cfm: 1})
	queued := query(1, 0, 2, 4)
	cand := query(2, 0, 2.5, 3)
	got := c.Admit(0, cand, fakeView{queued: []*txn.Txn{queued}})
	if got != Admitted {
		t.Fatalf("rejected although rejection costs more: %v", got)
	}
}

func TestUSMCheckInertWhenNaive(t *testing.T) {
	c := New(usm.Weights{}) // all zero: 0 > 0 is false
	queued := query(1, 0, 2, 4)
	cand := query(2, 0, 2.5, 3)
	if got := c.Admit(0, cand, fakeView{queued: []*txn.Txn{queued}}); got != Admitted {
		t.Fatalf("naive USM check rejected: %v", got)
	}
}

func TestUSMCheckIgnoresAlreadyDoomedQueries(t *testing.T) {
	c := New(usm.Weights{Cr: 0.2, Cfm: 1})
	// Queued query already cannot meet its deadline (finish 5 >= 2): it is
	// not *newly* endangered by the candidate.
	doomed := query(1, 0, 5, 2)
	cand := query(2, 0, 0.5, 1.9)
	if got := c.Admit(0, cand, fakeView{queued: []*txn.Txn{doomed}}); got != Admitted {
		t.Fatalf("candidate charged for an already-doomed query: %v", got)
	}
}

// TestUSMGateStopsAtFirstExcess: four queued queries, each safe alone and
// each pushed past its deadline by the candidate. With C_fm = 0.25 and
// C_r = 0.5 the endangered cost reaches C_r at the second query and passes
// it at the third, where the gate rejects without resolving the fourth. A
// cost that only equals C_r does not reject.
func TestUSMGateStopsAtFirstExcess(t *testing.T) {
	var resolved []int64
	c := New(usm.Weights{}, WithResolver(func(tx *txn.Txn) usm.Weights {
		resolved = append(resolved, tx.ID)
		return usm.Weights{Cr: 0.5, Cfm: 0.25}
	}))
	rq := readyq.New()
	for i := 1; i <= 4; i++ {
		// Alone, query i finishes at i; behind the candidate, at i+1.
		rq.Push(query(int64(i), 0, 1, float64(i)+0.5))
	}
	cand := query(9, 0, 1, 1.2) // dispatches first; 1 < 1.2 passes gate 1
	if got := c.AdmitOrdered(0, cand, 0, rq.EDFQueries()); got != RejectedUSM {
		t.Fatalf("four endangered queries at C_fm 0.25 against C_r 0.5: %v, want %v", got, RejectedUSM)
	}
	if want := []int64{9, 1, 2, 3}; !slices.Equal(resolved, want) {
		t.Fatalf("resolved %v, want %v: the gate must stop at the first cost above C_r", resolved, want)
	}
	rq.Remove(rq.EDFQueries()[3].Txn)
	rq.Remove(rq.EDFQueries()[2].Txn)
	if got := c.AdmitOrdered(0, query(10, 0, 1, 1.2), 0, rq.EDFQueries()); got != Admitted {
		t.Fatalf("endangered cost equal to C_r: %v, want %v", got, Admitted)
	}
}

func TestAdmitStats(t *testing.T) {
	c := New(usm.Weights{})
	c.Admit(0, query(1, 0, 1, 10), fakeView{})
	c.Admit(0, query(2, 0, 5, 2), fakeView{})
	adm, rd, ru := c.Stats()
	if adm != 1 || rd != 1 || ru != 0 {
		t.Fatalf("stats = %d %d %d", adm, rd, ru)
	}
}

func TestAdmitPanicsOnUpdate(t *testing.T) {
	c := New(usm.Weights{})
	u := txn.NewUpdate(1, 0, 0, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Admit accepted an update transaction")
		}
	}()
	c.Admit(0, u, fakeView{})
}

func TestOptionValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { New(usm.Weights{}, WithFlexBounds(0, 1)) },
		func() { New(usm.Weights{}, WithFlexBounds(2, 1)) },
		func() { New(usm.Weights{Cr: -1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid option accepted")
				}
			}()
			fn()
		}()
	}
}

func TestReasonStrings(t *testing.T) {
	if Admitted.String() != "admitted" ||
		RejectedDeadline.String() != "rejected-deadline" ||
		RejectedUSM.String() != "rejected-usm" {
		t.Fatal("reason names wrong")
	}
	if Reason(99).String() == "" {
		t.Fatal("unknown reason should render")
	}
}

func TestAdmitIsDeterministic(t *testing.T) {
	mk := func() Reason {
		c := New(usm.Weights{Cr: 0.3, Cfm: 0.6, Cfs: 0.1})
		view := fakeView{running: 0.5, backlog: 1, queued: []*txn.Txn{
			query(1, 0, 2, 8), query(2, 0, 1, 4), query(3, 0, 3, 20),
		}}
		return c.Admit(0, query(9, 0, 1.5, 6), view)
	}
	first := mk()
	for i := 0; i < 10; i++ {
		if mk() != first {
			t.Fatal("admission decision not deterministic")
		}
	}
	if math.IsNaN(float64(first)) {
		t.Fatal("unreachable")
	}
}

// referenceAdmit is the snapshot-and-sort Admit this package shipped before
// admission walked the ordered ready queue: copy the queue, sort it, sweep
// it once per gate. It is the oracle of TestOrderedWalkMatchesReference.
func referenceAdmit(c *Controller, now float64, q *txn.Txn, view QueueView) Reason {
	queued := append([]*txn.Txn(nil), view.QueuedQueries()...)
	slices.SortFunc(queued, func(a, b *txn.Txn) int {
		if a.HigherPriority(b) {
			return -1
		}
		if b.HigherPriority(a) {
			return 1
		}
		return 0
	})
	base := view.RunningRemaining() + view.UpdateBacklog()
	est := base
	for _, other := range queued {
		if other.HigherPriority(q) {
			est += other.Remaining
		}
	}
	if now+c.cflex*est+q.EstExec >= q.Deadline {
		c.rejectedDeadline++
		return RejectedDeadline
	}
	endangeredCost := 0.0
	prefix := base
	for _, other := range queued {
		finish := now + prefix + other.Remaining
		if !other.HigherPriority(q) {
			wasSafe := finish < other.Deadline
			nowLate := finish+q.EstExec >= other.Deadline
			if wasSafe && nowLate {
				endangeredCost += c.resolve(other).Cfm
			}
		}
		prefix += other.Remaining
	}
	if endangeredCost > c.resolve(q).Cr {
		c.rejectedUSM++
		return RejectedUSM
	}
	c.admitted++
	return Admitted
}

// TestOrderedWalkMatchesReference is the oracle property test: over seeded
// random ready queues — depths 0 to 2048, deadlines on a coarse grid so
// duplicates are common, partially-run Remaining, per-class weights, C_flex
// moved by TAC/LAC signals — the in-place walk of the ordered queue, the
// unordered fallback and the old snapshot-and-sort implementation must
// return the same Reason for every candidate and end with the same Stats.
// The queues are built tight (deadlines near each query's own finish time)
// so that both gates fire, and many queries sit behind each candidate
// within its execution time of their deadline, so a USM rejection usually
// leaves endangered queries unvisited. The test fails if any verdict never
// occurs, or if the ordered walk's early exit never skips an endangered
// query the reference resolves. One class's C_r is a sum of two others'
// C_fm (0.25 + 0.25, exact in binary), so the gate meets costs equal to C_r.
func TestOrderedWalkMatchesReference(t *testing.T) {
	classes := []usm.Weights{{Cr: 0.2, Cfm: 0.8, Cfs: 0.2}, {Cr: 2, Cfm: 0.6, Cfs: 0.1}, {}, {Cr: 0.5, Cfm: 0.25}}
	counting := func(n *int) Option {
		return WithResolver(func(tx *txn.Txn) usm.Weights {
			*n++
			return classes[tx.PrefClass]
		})
	}
	depths := []int{0, 1, 2, 3, 7, 64, 500, 2048}
	var seen [3]int
	cutShort := 0
	for seed := uint64(1); seed <= 24; seed++ {
		rng := stats.NewRNG(seed)
		depth := depths[int(seed)%len(depths)]
		if seed > uint64(len(depths)) {
			depth = rng.Intn(2049)
		}
		now := rng.Uniform(0, 100)
		running, backlog := rng.Uniform(0, 0.05), rng.Uniform(0, 0.05)

		// Draw the queue in a would-be dispatch order, each deadline a small
		// slack away from the query's finish time in that order, then snap
		// deadlines to a grid: the real EDF order differs, ties abound, and
		// a good share of the queue sits within one candidate of missing.
		txns := make([]*txn.Txn, depth)
		finish := now + running + backlog
		for i := range txns {
			exec := rng.Uniform(0.001, 0.02)
			tx := txn.NewQuery(int64(i+1), now, []int{0}, exec, 1, 0.9)
			if rng.Float64() < 0.3 {
				tx.Remaining = exec * rng.Float64() // preempted part-way
			}
			finish += tx.Remaining
			tx.Deadline = math.Round((finish+rng.Uniform(-0.01, 0.04))*50) / 50
			tx.PrefClass = rng.Intn(len(classes))
			txns[i] = tx
		}
		rq := readyq.New()
		for _, i := range rng.Perm(depth) {
			rq.Push(txns[i])
		}
		unordered := fakeView{running: running, backlog: backlog, queued: txns}

		var refCalls, walkCalls int
		ref := New(classes[0], counting(&refCalls))
		walk := New(classes[0], counting(&walkCalls))
		fallback := New(classes[0], counting(new(int)))
		for n := 0; n < 40; n++ {
			exec := rng.Uniform(0.001, 0.03)
			cand := txn.NewQuery(int64(depth+1+n), now, []int{0}, exec, rng.Uniform(0, 1.3)*(finish-now)+exec, 0.9)
			if rng.Float64() < 0.5 {
				cand.Deadline = math.Round(cand.Deadline*50) / 50
			}
			if rng.Float64() < 0.1 && depth > 0 {
				// Collide with a queued query's whole key but for the id.
				cand.Deadline = txns[rng.Intn(depth)].Deadline
			}
			cand.PrefClass = rng.Intn(len(classes))
			refBefore, walkBefore := refCalls, walkCalls
			want := referenceAdmit(ref, now, cand, unordered)
			if got := walk.AdmitOrdered(now, cand, running+backlog, rq.EDFQueries()); got != want {
				t.Fatalf("seed %d depth %d cand %d: ordered walk %v, reference %v", seed, depth, n, got, want)
			}
			if walkCalls-walkBefore < refCalls-refBefore {
				cutShort++
			}
			if got := fallback.Admit(now, cand, unordered); got != want {
				t.Fatalf("seed %d depth %d cand %d: unordered fallback %v, reference %v", seed, depth, n, got, want)
			}
			seen[want]++
			for _, c := range []*Controller{ref, walk, fallback} {
				switch n % 4 {
				case 1:
					c.Loosen()
				case 3:
					c.Tighten()
				}
			}
		}
		ra, rd, ru := ref.Stats()
		for name, c := range map[string]*Controller{"ordered walk": walk, "unordered fallback": fallback} {
			if a, d, u := c.Stats(); a != ra || d != rd || u != ru {
				t.Fatalf("seed %d depth %d: %s stats (%d,%d,%d), reference (%d,%d,%d)", seed, depth, name, a, d, u, ra, rd, ru)
			}
		}
	}
	for r, n := range seen {
		if n == 0 {
			t.Fatalf("no candidate ended %v: the generator no longer exercises that gate (verdict counts %v)", Reason(r), seen)
		}
	}
	if cutShort == 0 {
		t.Fatal("the USM gate never stopped before an endangered query: the generator no longer exercises the early exit")
	}
	t.Logf("verdicts %v; early exit skipped endangered queries for %d candidates", seen, cutShort)
}
