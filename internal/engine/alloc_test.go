//go:build !race

package engine_test

import (
	"testing"

	"unitdb/internal/core/usm"
	"unitdb/internal/engine"
)

// maxAllocsPerEvent bounds a UNIT run's heap objects per simulated
// event. The engine's recurring events (arrivals, feeds, completions,
// deadlines, control ticks) are recycled and its transactions come from
// blocks, so what is left is per-run setup (feeds and their events), the
// lock table's held lists and the controller's decision log. A closure
// creeping back into a recurring event adds about one object per event,
// and a transaction allocated on its own about a fifth of one; either
// fails here.
const maxAllocsPerEvent = 0.1

// maxPolicyAllocsPerEvent is the looser per-policy bound: the baselines
// have no control loop, so they fire well under half of UNIT's events on
// the same trace and the fixed per-run setup weighs more per event.
const maxPolicyAllocsPerEvent = 0.2

// allocsPerEvent runs policy over the bench trace once and returns the
// heap objects it allocated per simulated event.
func allocsPerEvent(t *testing.T, policy string) float64 {
	t.Helper()
	w := benchTrace(t)
	var events int64
	allocs := testing.AllocsPerRun(1, func() {
		e, err := engine.New(engine.NewConfig(w, usm.Weights{}, 7), benchPolicy(t, policy))
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		events = r.Events
	})
	perEvent := allocs / float64(events)
	t.Logf("%s: %.0f allocations over %d events: %.3f per event", policy, allocs, events, perEvent)
	return perEvent
}

// TestUNITRunAllocsPerEvent is the allocation guard. The race detector
// allocates on its own, hence the build tag.
func TestUNITRunAllocsPerEvent(t *testing.T) {
	if got := allocsPerEvent(t, "UNIT"); got >= maxAllocsPerEvent {
		t.Fatalf("%.3f allocations per simulated event, want < %v", got, maxAllocsPerEvent)
	}
}

// TestRunAllocsPerEventByPolicy extends the guard to every policy, so a
// per-transaction allocation in a path only a baseline takes (ODU's
// refreshes, QMF's rejections, IMU's update stream) shows too.
func TestRunAllocsPerEventByPolicy(t *testing.T) {
	for _, policy := range []string{"IMU", "ODU", "QMF", "UNIT"} {
		t.Run(policy, func(t *testing.T) {
			if got := allocsPerEvent(t, policy); got >= maxPolicyAllocsPerEvent {
				t.Fatalf("%.3f allocations per simulated event, want < %v", got, maxPolicyAllocsPerEvent)
			}
		})
	}
}
