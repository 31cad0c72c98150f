package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"unitdb/internal/engine"
	"unitdb/internal/obs/promtext"
)

func newTestSharded(t *testing.T, shards int, mutate ...func(*Config)) *Sharded {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumItems = 64
	cfg.Workers = shards * 2
	cfg.ControlPeriod = 20 * time.Millisecond
	cfg.GracePeriod = 50 * time.Millisecond
	cfg.MinDecisionSamples = 5
	for _, m := range mutate {
		m(&cfg)
	}
	g, err := NewSharded(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// crossShardItems returns item ids guaranteed to live on at least two
// different shards.
func crossShardItems(t *testing.T, numItems, shards int) []int {
	t.Helper()
	first := engine.ShardOf(0, shards)
	for i := 1; i < numItems; i++ {
		if engine.ShardOf(i, shards) != first {
			return []int{0, i}
		}
	}
	t.Fatalf("all %d items hash to shard %d of %d", numItems, first, shards)
	return nil
}

func TestShardedQuerySucceeds(t *testing.T) {
	g := newTestSharded(t, 4)
	items := crossShardItems(t, 64, 4)
	resp := g.Query(QueryRequest{Items: items, Deadline: time.Second, Work: time.Millisecond})
	if resp.Outcome != OutcomeSuccess {
		t.Fatalf("outcome = %s", resp.Outcome)
	}
	if resp.Freshness != 1 {
		t.Fatalf("freshness = %v", resp.Freshness)
	}
	for _, it := range items {
		if _, ok := resp.Values[strconv.Itoa(it)]; !ok {
			t.Fatalf("values missing item %d: %v", it, resp.Values)
		}
	}
	if resp.Latency <= 0 {
		t.Fatal("latency not measured")
	}
}

func TestShardedUpdateRoutesToOwner(t *testing.T) {
	g := newTestSharded(t, 4)
	for item := 0; item < 16; item++ {
		applied, err := g.Update(UpdateRequest{Item: item, Value: float64(item) + 0.5})
		if err != nil || !applied {
			t.Fatalf("update item %d: %v applied=%v", item, err, applied)
		}
		resp := g.Query(QueryRequest{Items: []int{item}, Deadline: time.Second})
		if resp.Values[strconv.Itoa(item)] != float64(item)+0.5 {
			t.Fatalf("read item %d: %v", item, resp.Values)
		}
	}
	if _, err := g.Update(UpdateRequest{Item: 64, Value: 1}); err == nil {
		t.Fatal("out-of-range update accepted")
	}
	if _, err := g.Update(UpdateRequest{Item: -1, Value: 1}); err == nil {
		t.Fatal("negative update accepted")
	}
}

// TestShardedQueryIDsDisjoint: each shard assigns ids from its own band,
// so a query id identifies its shard globally.
func TestShardedQueryIDsDisjoint(t *testing.T) {
	g := newTestSharded(t, 4)
	for item := 0; item < 32; item++ {
		resp := g.Query(QueryRequest{Items: []int{item}, Deadline: time.Second})
		if resp.Query == 0 {
			t.Fatalf("item %d: no query id", item)
		}
		owner := engine.ShardOf(item, 4)
		if got := int(resp.Query >> 40); got != owner {
			t.Fatalf("item %d: query id %d encodes shard %d, owner is %d", item, resp.Query, got, owner)
		}
	}
}

// TestShardedCrossShardRejectionCountedOnce: when one touched shard
// rejects a scattered query, the front door's logical accounting tallies
// exactly one rejection, regardless of what other slices did.
func TestShardedCrossShardRejectionCountedOnce(t *testing.T) {
	g := newTestSharded(t, 2, func(c *Config) {
		c.NumItems = 64
	})
	items := crossShardItems(t, 64, 2)

	// Close the shard owning items[1]: its slice resolves as a rejection
	// while items[0]'s shard stays healthy.
	victim := engine.ShardOf(items[1], 2)
	g.shards[victim].Close()

	before := g.gate.counts()
	resp := g.Query(QueryRequest{Items: items, Deadline: time.Second})
	if resp.Outcome != OutcomeRejected {
		t.Fatalf("outcome = %s, want rejected (one slice rejected)", resp.Outcome)
	}
	after := g.gate.counts()
	if d := after.Rejected - before.Rejected; d != 1 {
		t.Fatalf("logical rejections grew by %d, want exactly 1", d)
	}
	if after.Success != before.Success {
		t.Fatal("a rejected logical query also tallied a success")
	}
	st := g.Stats()
	if st.Counts != after {
		t.Fatalf("Stats counts %+v diverge from gate tally %+v", st.Counts, after)
	}
}

// TestShardedCloseClosesEveryShard: Close returns only after every shard
// has closed. A wg.Add(1) folded into the per-shard goroutine lets Wait
// return before any of them ran.
func TestShardedCloseClosesEveryShard(t *testing.T) {
	for i := 0; i < 50; i++ {
		g := newTestSharded(t, 4)
		g.Close()
		for k, s := range g.shards {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if !closed {
				t.Fatalf("round %d: shard %d still open after Close", i, k)
			}
		}
	}
}

// TestShardedSingleShardFastPath: a query whose items all live on one
// shard is answered by that shard alone.
func TestShardedSingleShardFastPath(t *testing.T) {
	g := newTestSharded(t, 4)
	item := 3
	owner := engine.ShardOf(item, 4)
	before := g.shards[owner].Stats().Counts.Total()
	resp := g.Query(QueryRequest{Items: []int{item}, Deadline: time.Second})
	if resp.Outcome != OutcomeSuccess {
		t.Fatalf("outcome = %s", resp.Outcome)
	}
	if got := g.shards[owner].Stats().Counts.Total(); got != before+1 {
		t.Fatalf("owner shard tallied %d outcomes, want %d", got, before+1)
	}
	for i, s := range g.shards {
		if i == owner {
			continue
		}
		if n := s.Stats().Counts.Total(); n != 0 {
			t.Fatalf("shard %d tallied %d outcomes for a foreign item", i, n)
		}
	}
}

// TestShardedStatsMerge: the merged snapshot sums the additive fields
// and carries each shard's snapshot under Shards.
func TestShardedStatsMerge(t *testing.T) {
	g := newTestSharded(t, 3)
	for item := 0; item < 12; item++ {
		if _, err := g.Update(UpdateRequest{Item: item, Value: 1}); err != nil {
			t.Fatal(err)
		}
		g.Query(QueryRequest{Items: []int{item}, Deadline: time.Second})
	}
	st := g.StatsWindow(time.Minute)
	if len(st.Shards) != 3 {
		t.Fatalf("Shards carries %d snapshots, want 3", len(st.Shards))
	}
	applied := 0
	for _, c := range st.Shards {
		applied += c.UpdatesApplied
		if len(c.Shards) != 0 {
			t.Fatal("a shard snapshot recursively carries shards")
		}
	}
	if st.UpdatesApplied != applied || applied != 12 {
		t.Fatalf("UpdatesApplied merged %d, shards sum %d, want 12", st.UpdatesApplied, applied)
	}
	if st.Counts.Total() != 12 {
		t.Fatalf("logical outcomes %d, want 12", st.Counts.Total())
	}
	if st.Window == nil || st.Window.Counts.Total() != 12 {
		t.Fatalf("window = %+v, want 12 outcomes", st.Window)
	}
}

// TestShardedMetricsShared: one registry serves every shard's series
// (shard-labeled) plus the front door's global unit_usm, and the
// exposition parses as valid Prometheus text.
func TestShardedMetricsShared(t *testing.T) {
	g := newTestSharded(t, 2)
	items := crossShardItems(t, 64, 2)
	g.Query(QueryRequest{Items: items, Deadline: time.Second})

	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if err := promtext.Write(&sb, g.Metrics().Snapshot()); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		`unit_queries_total{outcome="success",shard="0"}`,
		`unit_queries_total{outcome="success",shard="1"}`,
		"\nunit_usm ", // the front door's unlabeled global series
		`unit_usm{shard="0"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}

// TestShardedHTTPContract: the front door serves the same HTTP surface
// as a single server.
func TestShardedHTTPContract(t *testing.T) {
	g := newTestSharded(t, 2)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	items := crossShardItems(t, 64, 2)
	q := srv.URL + "/query?items=" + strconv.Itoa(items[0]) + "," + strconv.Itoa(items[1]) + "&deadline=1s"
	resp, err := http.Get(q)
	if err != nil {
		t.Fatal(err)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || qr.Outcome != OutcomeSuccess {
		t.Fatalf("query: status %d outcome %s", resp.StatusCode, qr.Outcome)
	}
	for _, path := range []string{"/stats?window=30s", "/debug/trace?n=10", "/debug/controller?n=10", "/debug/slow?n=5", "/healthz"} {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, r.StatusCode)
		}
	}
}

// TestShardedCanceledPropagates: a canceled client yields a canceled
// logical outcome that never enters the gate's USM counts.
func TestShardedCanceledPropagates(t *testing.T) {
	g := newTestSharded(t, 2, func(c *Config) {
		c.Workers = 2 // one per shard; easy to occupy
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // client gone before the query is presented
	items := crossShardItems(t, 64, 2)
	resp := g.QueryCtx(ctx, QueryRequest{Items: items, Deadline: time.Second, Work: 50 * time.Millisecond})
	if resp.Outcome != OutcomeCanceled {
		t.Fatalf("outcome = %s, want canceled", resp.Outcome)
	}
	c := g.gate.counts()
	if c.Total() != 0 {
		t.Fatalf("canceled query entered the USM counts: %+v", c)
	}
	if got := g.gate.canceled.Load(); got != 1 {
		t.Fatalf("canceled tally = %d, want 1", got)
	}
}
