package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"unitdb/internal/obs/trace"
)

// scenarioSeed is the suite's master seed; every scenario derives its
// own sub-streams from it, so one integer pins the whole library.
const scenarioSeed = 1

// deterministicNames returns the registered deterministic scenarios.
func deterministicNames() []string {
	var out []string
	for _, n := range Names() {
		if s, _ := Get(n); s.Deterministic {
			out = append(out, n)
		}
	}
	return out
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) < 6 {
		t.Fatalf("registry holds %d scenarios, want >= 6: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
	if _, ok := Get("no-such-scenario"); ok {
		t.Fatal("Get returned a scenario for an unknown name")
	}
	for _, n := range names {
		s, ok := Get(n)
		if !ok {
			t.Fatalf("Get(%q) failed for a listed name", n)
		}
		if s.Synopsis == "" || s.Story == "" || s.Property == "" {
			t.Fatalf("scenario %q lacks documentation: %+v", n, s)
		}
	}
}

func TestRegisterPanics(t *testing.T) {
	for _, s := range []Scenario{
		{Name: "", Run: func(RunConfig) (*Report, error) { return nil, nil }},
		{Name: "flash-crowd-drift", Run: func(RunConfig) (*Report, error) { return nil, nil }},
		{Name: "runless"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q) did not panic", s.Name)
				}
			}()
			Register(s)
		}()
	}
}

// TestScenarioProperties runs every deterministic scenario once and
// asserts its recovery property holds at the suite seed. Each scenario
// is a subtest so a regression names the story it broke.
func TestScenarioProperties(t *testing.T) {
	for _, name := range deterministicNames() {
		name := name
		t.Run(name, func(t *testing.T) { checkProperty(t, name, RunConfig{Seed: scenarioSeed}) })
	}
}

// checkProperty runs one scenario under cfg, asserts its recovery
// property and returns the report.
func checkProperty(t *testing.T, name string, cfg RunConfig) *Report {
	t.Helper()
	s, _ := Get(name)
	rep, err := s.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Shards > 1 && rep.Shards != cfg.Shards {
		t.Errorf("Report.Shards = %d, want %d", rep.Shards, cfg.Shards)
	}
	logChecks(t, rep.Property.Checks)
	if !rep.Property.Pass {
		t.Errorf("property violated at shards=%d (summary %+v)", cfg.Shards, rep.Summary)
	}
	return rep
}

// logChecks logs every passing clause and fails the test on each
// violated one, so a regression names the clause it broke.
func logChecks(t *testing.T, checks []Check) {
	t.Helper()
	for _, c := range checks {
		if c.Pass {
			t.Logf("ok   %-20s %s", c.Name, c.Detail)
		} else {
			t.Errorf("FAIL %-20s %s", c.Name, c.Detail)
		}
	}
}

// TestScenarioReplayIdentical pins the determinism contract: the same
// seed replays a DeepEqual-identical report and a byte-identical trace
// JSONL; a different seed diverges. Under -short only the first two
// scenarios run.
func TestScenarioReplayIdentical(t *testing.T) {
	names := deterministicNames()
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) { checkReplay(t, name, 0) })
	}
}

// checkReplay replays one scenario twice at the suite seed and once at
// the next, at the given shard count; sharded runs must also carry
// shard stamps in their merged trace.
func checkReplay(t *testing.T, name string, shards int) {
	t.Helper()
	s, _ := Get(name)
	run := func(seed uint64) (*Report, []byte) {
		rec := trace.New(1<<18, 1<<14)
		rep, err := s.Run(RunConfig{Seed: seed, Shards: shards, Trace: rec})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return rep, buf.Bytes()
	}
	r1, t1 := run(scenarioSeed)
	r2, t2 := run(scenarioSeed)
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("same-seed reports diverge at shards=%d:\n%+v\n%+v", shards, r1.Summary, r2.Summary)
	}
	if !bytes.Equal(t1, t2) {
		t.Errorf("same-seed traces diverge at shards=%d (%d vs %d bytes)", shards, len(t1), len(t2))
	}
	if len(t1) == 0 {
		t.Error("trace recorder captured nothing")
	}
	if shards > 1 && !bytes.Contains(t1, []byte(`"shard":`)) {
		t.Error("merged trace carries no shard stamps")
	}
	r3, _ := run(scenarioSeed + 1)
	if reflect.DeepEqual(r1.Summary, r3.Summary) {
		t.Error("different seeds replayed identical summaries; the seed is not flowing")
	}
}

// TestReportSerializable: reports round-trip through JSON (the
// cmd/unitscenario output format) without losing the property verdict.
func TestReportSerializable(t *testing.T) {
	s, _ := Get("flash-crowd-drift")
	rep, err := s.Run(RunConfig{Seed: scenarioSeed})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Scenario != rep.Scenario || back.Property.Pass != rep.Property.Pass ||
		len(back.Property.Checks) != len(rep.Property.Checks) || len(back.Windows) != len(rep.Windows) {
		t.Fatalf("report did not survive JSON round trip:\n%+v\n%+v", rep, back)
	}
}

// TestWindowCoverage sanity-checks the harness: the window series must
// account for every finalized outcome exactly once.
func TestWindowCoverage(t *testing.T) {
	s, _ := Get("slow-consumer")
	rep, err := s.Run(RunConfig{Seed: scenarioSeed})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, w := range rep.Windows {
		total += w.Counts.Total()
	}
	if total != rep.Summary.Counts.Total() {
		t.Fatalf("windows tally %d outcomes, run finalized %d", total, rep.Summary.Counts.Total())
	}
}
