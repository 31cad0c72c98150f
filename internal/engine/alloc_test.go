//go:build !race

package engine_test

import (
	"testing"

	"unitdb/internal/core/usm"
	"unitdb/internal/engine"
)

// maxAllocsPerEvent bounds a UNIT run's heap objects per simulated
// event. The engine's recurring events (arrivals, feeds, completions,
// deadlines, control ticks) are recycled, so what is left is per-query
// and per-update state; a closure creeping back into a recurring event
// adds about one object per event and fails here.
const maxAllocsPerEvent = 0.4

// TestUNITRunAllocsPerEvent is the allocation guard. The race detector
// allocates on its own, hence the build tag.
func TestUNITRunAllocsPerEvent(t *testing.T) {
	w := benchTrace(t)
	var events int64
	allocs := testing.AllocsPerRun(1, func() {
		e, err := engine.New(engine.NewConfig(w, usm.Weights{}, 7), benchPolicy(t, "UNIT"))
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
	t.Logf("%.0f allocations over %d events: %.3f per event", allocs, events, perEvent)
	if perEvent >= maxAllocsPerEvent {
		t.Fatalf("%.3f allocations per simulated event, want < %v", perEvent, maxAllocsPerEvent)
	}
}
