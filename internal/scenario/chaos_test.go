package scenario

import (
	"fmt"
	"testing"

	"unitdb/internal/experiments/runner"
	"unitdb/internal/faults"
)

// TestChaosRecovery replays each single-fault schedule against UNIT on
// the flat scenario trace at master seeds 1 to 5 — recovery is a law of
// the controller, not of one lucky seed — and holds it to the recovery
// law (recoveryChecks, DESIGN.md §12): the windowed USM dips by at least
// minDip while the fault bites and is back inside the pre-fault band
// within four windows of it clearing. Each row also reconciles the
// injector's tally with the engine's counters (chaosAccounting), so no
// injected fault can be silently ignored.
func TestChaosRecovery(t *testing.T) {
	rows := []struct {
		name   string
		fault  faults.Fault
		minDip float64
	}{
		{"feed-outage", faults.FeedOutage(1200, 1500), 0.05},
		{"item-blackout", faults.ItemBlackout(1200, 1500, 0, 1, 2, 3, 4, 5, 6, 7), 0.005},
		{"update-burst", faults.UpdateBurst(1200, 1500, 4), 0.02},
		{"cpu-slowdown", faults.CPUSlowdown(1200, 1400, 3), 0.05},
		{"arrival-stall", faults.ArrivalStall(1200, 1350), 0.02},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 5; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					w, err := flatTrace(runner.DeriveSeed(seed, "scenario", row.name, "workload"), 1)
					if err != nil {
						t.Fatal(err)
					}
					run := func(f faults.Fault) *engineRun {
						r, err := runEngine(row.name, RunConfig{Seed: seed}, w, faults.MustSchedule(f))
						if err != nil {
							t.Fatal(err)
						}
						return r
					}
					r := run(row.fault)
					logChecks(t, append(recoveryChecks(r.windows, row.fault.Start, row.fault.End, row.minDip),
						chaosAccounting(row.fault, r, run)))
				})
			}
		})
	}
}

// chaosAccounting reconciles a single-fault run's counters with its
// injector's tally. rerun replays the same seed and trace under another
// fault: an item blackout is checked against the whole-feed outage of
// the same window.
func chaosAccounting(f faults.Fault, r *engineRun, rerun func(faults.Fault) *engineRun) Check {
	lost, blocked := r.res.UpdatesLost, r.injected.UpdatesBlocked
	switch f.Kind {
	case faults.KindFeedOutage:
		if len(f.Items) == 0 {
			return checkf("accounting", lost > 0 && lost == blocked, "UpdatesLost %d, injector blocked %d", lost, blocked)
		}
		// A blackout of 8 of 64 uniform feeds must lose far fewer
		// deliveries than a whole-feed outage of the same window.
		full := rerun(faults.FeedOutage(f.Start, f.End)).res.UpdatesLost
		return checkf("accounting", lost > 0 && lost == blocked && lost*4 <= full,
			"UpdatesLost %d, injector blocked %d, full outage lost %d", lost, blocked, full)
	case faults.KindUpdateBurst:
		return checkf("accounting", lost == 0, "burst lost %d deliveries (bursts add arrivals, not losses); %d dropped by modulation",
			lost, r.res.UpdatesDropped)
	case faults.KindCPUSlowdown:
		return checkf("accounting", r.injected.ExecInflations > 0, "demands inflated: %d", r.injected.ExecInflations)
	case faults.KindArrivalStall:
		return checkf("accounting", r.res.QueriesStalled > 0 && r.res.QueriesStalled == r.injected.QueriesStalled,
			"QueriesStalled %d, injector stalled %d", r.res.QueriesStalled, r.injected.QueriesStalled)
	}
	return checkf("accounting", false, "no accounting for %v", f)
}
