package scenario

import (
	"bytes"
	"testing"

	"unitdb/internal/obs/trace"
)

// TestThunderingHerd drives the live retry-storm scenario end to end:
// a real HTTP server, retrying clients, and the asserted storm and
// recovery property. The run is wall-clock scheduled and therefore not
// bitwise-reproducible; the property holds with margins.
func TestThunderingHerd(t *testing.T) {
	if testing.Short() {
		t.Skip("live scenario: skipped under -short")
	}
	s, ok := Get("thundering-herd")
	if !ok {
		t.Fatal("thundering-herd not registered")
	}
	if s.Deterministic {
		t.Fatal("thundering-herd must not claim determinism")
	}
	rec := trace.New(1<<16, 1<<12)
	rep := checkProperty(t, s.Name, RunConfig{Seed: scenarioSeed, Trace: rec})
	if rep.Summary.Attempts <= int64(herdClients*herdQueriesEach) {
		t.Errorf("storm produced no retries: attempts %d", rep.Summary.Attempts)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("live run recorded no trace events")
	}
}
