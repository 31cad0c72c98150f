package load

import (
	"testing"
	"time"
)

var testMix = Mix{
	NumItems: 1024, ItemsPerQuery: 4, Skew: 0.8,
	Work: 8 * time.Millisecond, Deadline: 200 * time.Millisecond,
	Freshness: 0.9, DoomedEvery: 16,
}

func TestScheduleIsAFunctionOfSeed(t *testing.T) {
	gens := map[string]func(seed uint64) []Op{
		"open":   func(s uint64) []Op { return OpenLoop(testMix, 350, 2*time.Second, s) },
		"feed":   func(s uint64) []Op { return Feed(1024, 1000, 2*time.Second, s) },
		"closed": func(s uint64) []Op { return NewStream(testMix, 16, s, 1).Take(2000) },
	}
	for name, gen := range gens {
		a, b, c := Hash(gen(7)), Hash(gen(7)), Hash(gen(8))
		if a != b {
			t.Errorf("%s: same seed gave different schedules: %s vs %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule %s", name, a)
		}
	}
	if Hash(NewStream(testMix, 16, 7, 0).Take(100)) == Hash(NewStream(testMix, 16, 7, 1).Take(100)) {
		t.Error("closed: clients 0 and 1 share a stream")
	}
}

func TestOpenLoopShape(t *testing.T) {
	ops := OpenLoop(testMix, 350, 10*time.Second, 3)
	if n := len(ops); n < 3200 || n > 3800 {
		t.Fatalf("350/s over 10s gave %d arrivals", n)
	}
	doomed := 0
	for i, op := range ops {
		if i > 0 && op.Due < ops[i-1].Due {
			t.Fatalf("op %d due %v before op %d due %v", i, op.Due, i-1, ops[i-1].Due)
		}
		if len(op.Items) != testMix.ItemsPerQuery {
			t.Fatalf("op %d has %d items", i, len(op.Items))
		}
		seen := map[int]bool{}
		for _, it := range op.Items {
			if it < 0 || it >= testMix.NumItems || seen[it] {
				t.Fatalf("op %d items %v: out of range or repeated", i, op.Items)
			}
			seen[it] = true
		}
		if op.Doomed {
			doomed++
			if op.Deadline >= op.Work {
				t.Fatalf("doomed op %d: deadline %v not below work %v", i, op.Deadline, op.Work)
			}
		}
	}
	if doomed != len(ops)/testMix.DoomedEvery {
		t.Errorf("%d doomed of %d, want every %dth", doomed, len(ops), testMix.DoomedEvery)
	}
}

func TestStreamInterleavesUpdates(t *testing.T) {
	updates := 0
	for _, op := range NewStream(testMix, 16, 1, 0).Take(1600) {
		if op.Update {
			updates++
			if len(op.Items) != 1 {
				t.Fatalf("update writes %d items", len(op.Items))
			}
		}
	}
	if updates != 100 {
		t.Errorf("%d updates in 1600 ops, want 100", updates)
	}
}

func TestPaceFiresLateWithoutSkipping(t *testing.T) {
	ops := []Op{{Due: 0}, {Due: 0}, {Due: 3 * time.Millisecond}}
	// The timetable began 50 ms ago: every operation is overdue.
	start := time.Now().Add(-50 * time.Millisecond)
	var fired []int
	var lates []time.Duration
	began := time.Now()
	Pace(start, ops, func(i int, late time.Duration) {
		fired = append(fired, i)
		lates = append(lates, late)
	})
	if len(fired) != 3 {
		t.Fatalf("fired %v, want all three", fired)
	}
	for i, late := range lates {
		if late < 40*time.Millisecond {
			t.Errorf("op %d lateness %v, want about 50ms", i, late)
		}
	}
	if time.Since(began) > 20*time.Millisecond {
		t.Errorf("an overdue generator waited %v", time.Since(began))
	}
}
