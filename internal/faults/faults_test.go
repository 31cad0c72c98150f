package faults_test

import (
	"strings"
	"sync"
	"testing"

	"unitdb/internal/engine"
	"unitdb/internal/faults"
)

// The injector must plug into the engine's disturbance hooks, including
// the optional client-behaviour extension.
var (
	_ engine.Disturbance      = (*faults.Injector)(nil)
	_ engine.QueryDisturbance = (*faults.Injector)(nil)
)

func TestFaultValidation(t *testing.T) {
	bad := []faults.Fault{
		{Kind: faults.KindFeedOutage, Start: 20, End: 10}, // inverted
		{Kind: faults.KindFeedOutage, Start: -1, End: 10}, // negative start
		{Kind: faults.KindUpdateBurst, Start: 0, End: 1},  // zero factor
		{Kind: faults.KindCPUSlowdown, Start: 0, End: 1, Factor: -2},
		{Kind: faults.KindSlowConsumer, Start: 0, End: 1},                // zero factor
		{Kind: faults.KindClientDisconnect, Start: 0, End: 1, Factor: 0}, // zero delay
		{Kind: faults.Kind(99), Start: 0, End: 1},                        // unknown kind
		faults.ItemBlackout(0, 1, 3, -4),                                 // negative item
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("fault %d (%v) validated", i, f)
		}
		if _, err := faults.NewSchedule(f); err == nil {
			t.Errorf("schedule accepted bad fault %d (%v)", i, f)
		}
	}
	good := []faults.Fault{
		faults.FeedOutage(0, 5),
		faults.ItemBlackout(1, 2, 7),
		faults.UpdateBurst(0, 1, 4),
		faults.CPUSlowdown(2, 3, 1.5),
		faults.ArrivalStall(0, 10),
		faults.SlowConsumer(3, 4, 2.5),
		faults.ClientDisconnect(4, 5, 0.5),
		faults.FeedOutage(10, 10), // zero-length: legal and inert
	}
	if _, err := faults.NewSchedule(good...); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

func TestZeroLengthWindowIsInert(t *testing.T) {
	f := faults.FeedOutage(10, 10)
	if f.Active(10) {
		t.Fatal("zero-length window active at its own start")
	}
	s := faults.MustSchedule(f, faults.CPUSlowdown(2, 5, 2))
	if got := s.Horizon(); got != 5 {
		t.Fatalf("Horizon = %v, want 5 (zero-length window must not extend it)", got)
	}
	if got := len(s.ActiveAt(10)); got != 0 {
		t.Fatalf("%d faults active at t=10, want 0", got)
	}
	in := faults.NewInjector(faults.MustSchedule(f))
	if in.BlockFeed(0, 10) {
		t.Fatal("zero-length outage blocked a delivery")
	}
}

func TestOverlaps(t *testing.T) {
	cases := []struct {
		name string
		a, b faults.Fault
		want bool
	}{
		{"disjoint", faults.FeedOutage(0, 10), faults.FeedOutage(20, 30), false},
		{"back-to-back half-open", faults.FeedOutage(0, 10), faults.FeedOutage(10, 20), false},
		{"nested", faults.FeedOutage(0, 10), faults.FeedOutage(2, 5), true},
		{"straddle", faults.FeedOutage(0, 10), faults.FeedOutage(5, 15), true},
		{"zero-length inside", faults.FeedOutage(0, 10), faults.FeedOutage(5, 5), false},
		{"different kinds still overlap in time", faults.FeedOutage(0, 10), faults.UpdateBurst(5, 15, 2), true},
		{"item-scoped disjoint items", faults.ItemBlackout(0, 10, 1, 2), faults.ItemBlackout(0, 10, 3, 4), false},
		{"item-scoped shared item", faults.ItemBlackout(0, 10, 1, 2), faults.ItemBlackout(0, 10, 2, 3), true},
		{"unscoped covers scoped", faults.FeedOutage(0, 10), faults.ItemBlackout(0, 10, 7), true},
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("%s: Overlaps = %v, want %v", c.name, got, c.want)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("%s (reversed): Overlaps = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestConflictsAndMerge(t *testing.T) {
	outages := faults.MustSchedule(faults.ItemBlackout(0, 10, 1))
	bursts := faults.MustSchedule(faults.UpdateBurst(5, 15, 3))
	merged, err := faults.Merge(outages, nil, bursts)
	if err != nil {
		t.Fatalf("clean merge failed: %v", err)
	}
	if got := len(merged.Faults()); got != 2 {
		t.Fatalf("merged %d faults, want 2", got)
	}
	if cs := merged.Conflicts(); len(cs) != 0 {
		t.Fatalf("unexpected conflicts: %v", cs)
	}

	// Same kind, overlapping windows, shared items: a composition mistake.
	clash := faults.MustSchedule(faults.ItemBlackout(5, 15, 1))
	if _, err := faults.Merge(outages, clash); err == nil {
		t.Fatal("merge accepted same-kind overlap on a shared item")
	}
	// Same kind but disjoint item scopes merge fine.
	other := faults.MustSchedule(faults.ItemBlackout(5, 15, 2))
	if _, err := faults.Merge(outages, other); err != nil {
		t.Fatalf("item-disjoint same-kind merge failed: %v", err)
	}
	// Back-to-back same-kind windows do not conflict (half-open).
	tail := faults.MustSchedule(faults.ItemBlackout(10, 20, 1))
	if _, err := faults.Merge(outages, tail); err != nil {
		t.Fatalf("back-to-back merge failed: %v", err)
	}
}

func TestInjectorSlowConsumerAndDisconnect(t *testing.T) {
	in := faults.NewInjector(faults.MustSchedule(
		faults.SlowConsumer(0, 10, 2),
		faults.SlowConsumer(5, 10, 3),
		faults.ClientDisconnect(20, 30, 1.5),
		faults.ClientDisconnect(25, 30, 0.5),
	))
	if got := in.ScaleQueryExec(1); got != 2 {
		t.Fatalf("ScaleQueryExec(1) = %v, want 2", got)
	}
	if got := in.ScaleQueryExec(7); got != 6 { // overlapping windows multiply
		t.Fatalf("ScaleQueryExec(7) = %v, want 6", got)
	}
	if got := in.ScaleQueryExec(15); got != 1 {
		t.Fatalf("ScaleQueryExec(15) = %v, want 1", got)
	}
	if got := in.DisconnectAfter(5); got != 0 {
		t.Fatalf("DisconnectAfter(5) = %v, want 0", got)
	}
	if got := in.DisconnectAfter(22); got != 1.5 {
		t.Fatalf("DisconnectAfter(22) = %v, want 1.5", got)
	}
	if got := in.DisconnectAfter(26); got != 0.5 { // most impatient client wins
		t.Fatalf("DisconnectAfter(26) = %v, want 0.5", got)
	}
	c := in.Counts()
	if c.QueryInflations != 2 {
		t.Fatalf("QueryInflations = %d, want 2", c.QueryInflations)
	}
	if c.Disconnects != 2 {
		t.Fatalf("Disconnects = %d, want 2", c.Disconnects)
	}
}

func TestScheduleOrderingAndAccessors(t *testing.T) {
	s := faults.MustSchedule(
		faults.CPUSlowdown(50, 60, 2),
		faults.FeedOutage(10, 20),
		faults.ArrivalStall(10, 15),
	)
	fs := s.Faults()
	if len(fs) != 3 || fs[0].Start != 10 || fs[2].Start != 50 {
		t.Fatalf("canonical order wrong: %v", fs)
	}
	if got := s.Horizon(); got != 60 {
		t.Fatalf("horizon = %v, want 60", got)
	}
	if got := len(s.ActiveAt(12)); got != 2 {
		t.Fatalf("%d faults active at t=12, want 2", got)
	}
	if got := len(s.ActiveAt(20)); got != 0 { // windows are half-open
		t.Fatalf("%d faults active at t=20, want 0", got)
	}
	if str := s.String(); !strings.Contains(str, "feed-outage") {
		t.Fatalf("schedule string %q", str)
	}
}

func TestInjectorBlockFeed(t *testing.T) {
	in := faults.NewInjector(faults.MustSchedule(
		faults.FeedOutage(10, 20),
		faults.ItemBlackout(30, 40, 5),
	))
	cases := []struct {
		item int
		t    float64
		want bool
	}{
		{0, 5, false}, // before any window
		{0, 10, true}, // whole-feed outage
		{9, 19.9, true},
		{0, 20, false}, // half-open end
		{5, 35, true},  // blackout covers item 5
		{6, 35, false}, // but not item 6
	}
	blocked := 0
	for _, c := range cases {
		if got := in.BlockFeed(c.item, c.t); got != c.want {
			t.Errorf("BlockFeed(%d, %v) = %v, want %v", c.item, c.t, got, c.want)
		}
		if c.want {
			blocked++
		}
	}
	if got := in.Counts().UpdatesBlocked; got != blocked {
		t.Fatalf("UpdatesBlocked = %d, want %d", got, blocked)
	}
}

func TestInjectorComposition(t *testing.T) {
	in := faults.NewInjector(faults.MustSchedule(
		faults.CPUSlowdown(0, 10, 2),
		faults.CPUSlowdown(5, 10, 3),
		faults.UpdateBurst(0, 10, 4),
		faults.UpdateBurst(5, 10, 2, 1),
	))
	if got := in.ScaleExec(1); got != 2 {
		t.Fatalf("ScaleExec(1) = %v, want 2", got)
	}
	if got := in.ScaleExec(7); got != 6 { // overlapping slowdowns multiply
		t.Fatalf("ScaleExec(7) = %v, want 6", got)
	}
	if got := in.ScaleExec(11); got != 1 {
		t.Fatalf("ScaleExec(11) = %v, want 1", got)
	}
	if got := in.FeedRate(0, 7); got != 4 { // item-scoped burst skips item 0
		t.Fatalf("FeedRate(0, 7) = %v, want 4", got)
	}
	if got := in.FeedRate(1, 7); got != 8 { // bursts multiply on item 1
		t.Fatalf("FeedRate(1, 7) = %v, want 8", got)
	}
	if got := in.Counts().ExecInflations; got != 2 {
		t.Fatalf("ExecInflations = %d, want 2", got)
	}
}

func TestInjectorStallChains(t *testing.T) {
	in := faults.NewInjector(faults.MustSchedule(
		faults.ArrivalStall(10, 20),
		faults.ArrivalStall(20, 30), // release of the first lands in the second
	))
	if got := in.ReleaseQuery(5); got != 5 {
		t.Fatalf("ReleaseQuery(5) = %v, want 5", got)
	}
	if got := in.ReleaseQuery(15); got != 30 { // chained through both windows
		t.Fatalf("ReleaseQuery(15) = %v, want 30", got)
	}
	if got := in.ReleaseQuery(30); got != 30 {
		t.Fatalf("ReleaseQuery(30) = %v, want 30", got)
	}
	if got := in.Counts().QueriesStalled; got != 1 {
		t.Fatalf("QueriesStalled = %d, want 1", got)
	}
}

func TestNilScheduleInjectsNothing(t *testing.T) {
	in := faults.NewInjector(nil)
	if in.BlockFeed(0, 1) || in.ScaleExec(1) != 1 || in.FeedRate(0, 1) != 1 || in.ReleaseQuery(1) != 1 ||
		in.ScaleQueryExec(1) != 1 || in.DisconnectAfter(1) != 0 {
		t.Fatal("nil-schedule injector disturbed something")
	}
	if c := in.Counts(); c != (faults.Counts{}) {
		t.Fatalf("counts %+v, want zero", c)
	}
}

// TestInjectorCountsConcurrent: the tally may be read while a run drives
// the hooks from other goroutines, as the Injector doc promises. Every
// counting hook and a Counts reader run at once. Under -race a tally
// touched outside mu is a DATA RACE, and the final tally must count every
// call. (A lock left held deadlocks the hooks; this package is wall-clock
// free, so that shows as go test's -timeout.)
func TestInjectorCountsConcurrent(t *testing.T) {
	in := faults.NewInjector(faults.MustSchedule(
		faults.FeedOutage(0, 10),
		faults.CPUSlowdown(0, 10, 2),
		faults.ArrivalStall(0, 10),
		faults.SlowConsumer(0, 10, 2),
		faults.ClientDisconnect(0, 10, 1),
	))
	const calls = 20000
	hooks := []func(){
		func() { in.BlockFeed(0, 1) },
		func() { in.ScaleExec(1) },
		func() { in.ReleaseQuery(1) },
		func() { in.ScaleQueryExec(1) },
		func() { in.DisconnectAfter(1) },
		func() { in.Counts() },
	}
	var wg sync.WaitGroup
	for _, hook := range hooks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				hook()
			}
		}()
	}
	wg.Wait()
	want := faults.Counts{UpdatesBlocked: calls, QueriesStalled: calls, ExecInflations: calls, QueryInflations: calls, Disconnects: calls}
	if got := in.Counts(); got != want {
		t.Fatalf("Counts() = %+v, want %+v", got, want)
	}
}
