//go:build !race

package server

import (
	"context"
	"testing"
	"time"
)

// Heap objects per loopback call through Client, both ends counted (the
// server runs in-process). net/http's own share is about 70 of them; the
// wire codec's is what is left. url.Values or encoding/json creeping back
// onto either hot path adds 10-20 objects per call and fails here. A query
// read 77 when this bound was set; TestQueryAllocs pins the server's own
// share exactly.
const (
	maxAllocsPerQuery  = 80
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

// Heap objects per direct QueryCtx call. A rejected arrival is finalized
// on the server's arrival transaction and allocates nothing. An admitted
// zero-work query allocates its liveQuery (transaction and stage
// breakdown embedded, verdict channel recycled) and the response's
// one-entry Values map (header and bucket).
const maxAllocsPerAdmittedQuery = 3

// TestQueryAllocs is the allocation guard of the query path behind HTTP.
func TestQueryAllocs(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	// Twice the work the deadline allows: admission's deadline check
	// refuses it whatever C_flex is.
	rejected := QueryRequest{Items: []int{3}, Deadline: time.Second, Work: 2 * time.Second}
	admitted := QueryRequest{Items: []int{3}, Deadline: time.Second}
	// Fill the slow-query tracker so its growth is not counted.
	for i := 0; i < 2*slowCap; i++ {
		s.QueryCtx(ctx, admitted)
	}
	rej := testing.AllocsPerRun(200, func() {
		if r := s.QueryCtx(ctx, rejected); r.Outcome != OutcomeRejected {
			t.Fatalf("outcome %s, want %s", r.Outcome, OutcomeRejected)
		}
	})
	adm := testing.AllocsPerRun(200, func() {
		if r := s.QueryCtx(ctx, admitted); r.Outcome != OutcomeSuccess {
			t.Fatalf("outcome %s, want %s", r.Outcome, OutcomeSuccess)
		}
	})
	t.Logf("%.1f allocations per rejected query, %.1f per admitted query", rej, adm)
	if rej != 0 {
		t.Errorf("%.1f allocations per rejected QueryCtx call, want 0", rej)
	}
	if adm > maxAllocsPerAdmittedQuery {
		t.Errorf("%.1f allocations per admitted QueryCtx call, want <= %d", adm, maxAllocsPerAdmittedQuery)
	}
}
