package scenario

import (
	"fmt"
	"reflect"
	"testing"
)

// scenarioShardCounts are the shard counts the scenario invariance
// suite replays at (the ROADMAP's sharded-engine coverage points).
var scenarioShardCounts = []int{2, 8}

// TestScenarioPropertiesSharded replays every deterministic scenario
// across the shard matrix and asserts the same recovery properties
// hold: weak scaling keeps every shard near the single-engine operating
// point, so the stories keep their meaning behind the front door.
func TestScenarioPropertiesSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded scenario properties skipped in -short mode")
	}
	for _, shards := range scenarioShardCounts {
		for _, name := range deterministicNames() {
			name, shards := name, shards
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				t.Parallel()
				checkProperty(t, name, RunConfig{Seed: scenarioSeed, Shards: shards})
			})
		}
	}
}

// TestScenarioShardOneMatchesUnsharded pins the no-op contract at the
// scenario layer: Shards=1 (and 0) replays the exact unsharded Report.
func TestScenarioShardOneMatchesUnsharded(t *testing.T) {
	for _, name := range deterministicNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			s, _ := Get(name)
			base, err := s.Run(RunConfig{Seed: scenarioSeed})
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{0, 1} {
				got, err := s.Run(RunConfig{Seed: scenarioSeed, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(base, got) {
					t.Errorf("Shards=%d report diverges from the unsharded run:\n%+v\n%+v",
						shards, base.Summary, got.Summary)
				}
			}
		})
	}
}

// TestScenarioReplayIdenticalSharded extends the determinism contract
// behind the front door: per (seed, shard count) the Report replays
// DeepEqual-identically and the merged shard-stamped trace JSONL is
// byte-identical; a different seed diverges.
func TestScenarioReplayIdenticalSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded scenario replay skipped in -short mode")
	}
	for _, shards := range scenarioShardCounts {
		for _, name := range deterministicNames() {
			name, shards := name, shards
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				t.Parallel()
				checkReplay(t, name, shards)
			})
		}
	}
}
