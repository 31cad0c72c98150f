//go:build !race

package server

import "testing"

// Heap objects per loopback call through Client, both ends counted (the
// server runs in-process). net/http's own share is about 70 of them; the
// wire codec's is what is left. url.Values or encoding/json creeping back
// onto either hot path adds 10-20 objects per call and fails here.
const (
	maxAllocsPerQuery  = 100
	maxAllocsPerUpdate = 90
)

// TestHTTPAllocsPerCall is the allocation guard of the HTTP hot path.
// The race detector allocates on its own, hence the build tag.
func TestHTTPAllocsPerCall(t *testing.T) {
	c := newLoopbackClient(t)
	query := testing.AllocsPerRun(200, func() {
		if _, err := c.Query(benchQuery); err != nil {
			t.Fatal(err)
		}
	})
	update := testing.AllocsPerRun(200, func() {
		if _, err := c.Update(benchUpdate); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations per query, %.1f per update", query, update)
	if query >= maxAllocsPerQuery {
		t.Errorf("%.1f allocations per /query call, want < %d", query, maxAllocsPerQuery)
	}
	if update >= maxAllocsPerUpdate {
		t.Errorf("%.1f allocations per /update call, want < %d", update, maxAllocsPerUpdate)
	}
}
