package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"unitdb/internal/core/usm"
	"unitdb/internal/engine"
	"unitdb/internal/obs/metrics"
	"unitdb/internal/obs/trace"
)

// Sharded is the front door over N independent live Servers. Items hash
// to shards with the same splitmix64 routing the simulator's engine
// router uses (engine.ShardOf), so a data item lives on exactly one
// shard: its update feed, its freshness state and its query load never
// serialize on another shard's lock. Multi-item queries scatter to every
// touched shard concurrently and gather with the router's precedence —
// canceled beats rejected beats deadline-missed beats data-stale beats
// success, freshness is the minimum over the committed slices — so the
// logical answer a client sees follows the same laws at every shard
// count, and a cross-shard rejection is counted exactly once in the
// front door's accounting.
//
// Observability: the shards share one metrics registry (every series
// carries a shard="i" label; family names are identical to the
// single-server layout) and one trace recorder (events carry globally
// unique query ids — each shard stamps ids from its own band). The
// front door adds the unlabeled unit_usm series: the logical, global
// USM over gathered outcomes, aggregated lock-free.
type Sharded struct {
	cfg    Config
	shards []*Server
	reg    *metrics.Registry
	rec    *trace.Recorder
	gate   gateObs
}

// NewSharded creates and starts n live shards behind one front door.
// Each shard runs the full UNIT stack (admission, EDF pool, modulation,
// LBC) over the whole item space but only ever sees the items that hash
// to it. cfg is the template: Workers is divided across the shards
// (minimum one per shard), per-shard seeds derive from cfg.Seed by
// shard index, and each shard gets a disjoint query-id band. n <= 1
// still builds a front door over a single shard; callers wanting the
// plain unsharded server should use New instead.
func NewSharded(cfg Config, n int) (*Sharded, error) {
	if n < 1 {
		n = 1
	}
	rec := cfg.Trace
	if rec == nil {
		rec = trace.New(0, 0)
	}
	if err := cfg.Weights.Validate(); err != nil {
		return nil, err
	}
	g := &Sharded{
		cfg: cfg,
		reg: metrics.NewRegistry(),
		rec: rec,
	}
	g.gate.usm = g.reg.Gauge("unit_usm",
		"Cumulative User Satisfaction Metric since start (Eq. 5).")
	g.gate.weights = cfg.Weights
	perWorkers := 0
	if cfg.Workers > 0 {
		perWorkers = cfg.Workers / n
		if perWorkers < 1 {
			perWorkers = 1
		}
	}
	for i := 0; i < n; i++ {
		ccfg := cfg
		ccfg.Workers = perWorkers
		ccfg.Seed = engine.ShardSeed(cfg.Seed, i, n)
		ccfg.firstID = int64(i) << 40
		ccfg.Trace = rec
		ccfg.obsRegistry = g.reg
		ccfg.obsLabels = []metrics.Label{{Key: "shard", Value: strconv.Itoa(i)}}
		s, err := New(ccfg)
		if err != nil {
			for _, prev := range g.shards {
				prev.Close()
			}
			return nil, fmt.Errorf("server: shard %d: %w", i, err)
		}
		g.shards = append(g.shards, s)
	}
	return g, nil
}

// Shards reports the shard count.
func (g *Sharded) Shards() int { return len(g.shards) }

// Close stops every shard (each drains gracefully); idempotent.
func (g *Sharded) Close() {
	var wg sync.WaitGroup
	for _, s := range g.shards {
		wg.Add(1)
		go func(s *Server) {
			defer wg.Done()
			s.Close()
		}(s)
	}
	wg.Wait()
}

// Handler returns the HTTP interface of the front door — identical to a
// single Server's (same endpoints, status codes and response shapes).
func (g *Sharded) Handler() http.Handler { return newHandler(g) }

// Metrics exposes the shared registry: per-shard series plus the front
// door's global USM.
func (g *Sharded) Metrics() *metrics.Registry { return g.reg }

// TraceRecorder exposes the shared wall-time trace recorder.
func (g *Sharded) TraceRecorder() *trace.Recorder { return g.rec }

// Query submits a user query through the front door and blocks until it
// resolves.
func (g *Sharded) Query(req QueryRequest) QueryResponse {
	return g.QueryCtx(context.Background(), req)
}

// QueryCtx routes a query to its shards. A query whose items live on
// one shard delegates whole — the common fast path pays one hash per
// item and no extra goroutine. A cross-shard query scatters one
// sub-query per touched shard, each carrying the slice's share of the
// declared work, and gathers the logical answer (see the Sharded doc
// for the merge laws). The front door serializes on no lock of its own:
// admission, execution and finalization all happen inside the
// independently-locked shards.
func (g *Sharded) QueryCtx(ctx context.Context, req QueryRequest) QueryResponse {
	started := time.Now()
	groups := engine.PartitionItems(req.Items, len(g.shards))
	touched := make([]int, 0, len(groups))
	for i, grp := range groups {
		if len(grp) > 0 {
			touched = append(touched, i)
		}
	}
	var resp QueryResponse
	switch len(touched) {
	case 0:
		// No valid routing key (empty or out-of-range items): shard 0
		// owns the rejection so the error surface matches a plain server.
		resp = g.shards[0].QueryCtx(ctx, req)
	case 1:
		resp = g.shards[touched[0]].QueryCtx(ctx, req)
	default:
		resp = g.scatter(ctx, req, groups, touched)
	}
	resp.Latency = time.Since(started)
	g.gate.observe(resp.Outcome)
	return resp
}

// scatter fans a cross-shard query out and gathers the logical answer:
// each touched shard resolves its slice; the merge picks the logical
// outcome by precedence, so the one logical query resolves exactly once
// here no matter how many slices it scattered into.
func (g *Sharded) scatter(ctx context.Context, req QueryRequest, groups [][]int, touched []int) QueryResponse {
	subs := make([]QueryResponse, len(touched))
	var wg sync.WaitGroup
	for k, shard := range touched {
		wg.Add(1)
		go func(k, shard int) {
			defer wg.Done()
			sreq := req
			sreq.Items = groups[shard]
			// Each slice carries its share of the declared work, so the
			// scattered total equals the query's declared cost.
			sreq.Work = time.Duration(float64(req.Work) * float64(len(sreq.Items)) / float64(len(req.Items)))
			subs[k] = g.shards[shard].QueryCtx(ctx, sreq)
		}(k, shard)
	}
	wg.Wait()

	outcome := OutcomeSuccess
	fresh := math.Inf(1)
	values := make(map[string]float64, len(req.Items))
	slowest := 0
	for k, sub := range subs {
		if outcomeRank[sub.Outcome] > outcomeRank[outcome] {
			outcome = sub.Outcome
		}
		if sub.Outcome == OutcomeSuccess || sub.Outcome == OutcomeDSF {
			if sub.Freshness < fresh {
				fresh = sub.Freshness
			}
			for key, v := range sub.Values {
				values[key] = v
			}
		}
		if sub.Latency > subs[slowest].Latency {
			slowest = k
		}
	}
	if math.IsInf(fresh, 1) {
		fresh = 0 // no slice committed
	}
	merged := QueryResponse{Freshness: fresh}
	merged.Outcome = outcome
	if outcome == OutcomeSuccess || outcome == OutcomeDSF {
		merged.Values = values
	}
	// The slowest slice is the query's critical path: its id and stage
	// breakdown are the handles for chasing the latency through
	// /debug/trace and /debug/slow.
	merged.Query = subs[slowest].Query
	merged.Stages = subs[slowest].Stages
	return merged
}

// outcomeRank orders the gather precedence: canceled > rejected >
// deadline-missed > data-stale > success. Any rejected slice makes the
// logical query rejected (admit-iff-every-touched-shard-admits); a
// canceled slice means the client is gone, which trumps everything.
var outcomeRank = map[Outcome]int{
	OutcomeSuccess:  0,
	OutcomeDSF:      1,
	OutcomeDMF:      2,
	OutcomeRejected: 3,
	OutcomeCanceled: 4,
}

// Update routes an update-feed write to the shard owning its item.
func (g *Sharded) Update(req UpdateRequest) (bool, error) {
	if req.Item < 0 || req.Item >= g.cfg.NumItems {
		return false, fmt.Errorf("server: item %d out of range", req.Item)
	}
	return g.shards[engine.ShardOf(req.Item, len(g.shards))].Update(req)
}

// RetryAfter is the most pessimistic shard's estimate: a retried
// multi-item query may touch any shard, so the client waits for the
// deepest backlog.
func (g *Sharded) RetryAfter() time.Duration {
	worst := time.Duration(0)
	for _, s := range g.shards {
		if d := s.RetryAfter(); d > worst {
			worst = d
		}
	}
	return worst
}

// Stats returns the merged snapshot plus each shard's own under Shards.
func (g *Sharded) Stats() Stats { return g.StatsWindow(0) }

// StatsWindow merges the shards' snapshots. Counts and USM are the
// front door's logical view (one outcome per gathered query, a
// cross-shard rejection counted once); every additive field — updates,
// queue lengths, resilience counters, LBC tallies, the optional window
// — sums the shards' slice-level accounting; CFlex averages and
// RetryAfterSeconds takes the worst shard. The per-shard snapshots ride
// along under Shards for operators drilling into imbalance.
func (g *Sharded) StatsWindow(window time.Duration) Stats {
	children := make([]Stats, len(g.shards))
	for i, s := range g.shards {
		children[i] = s.StatsWindow(window)
	}
	counts := g.gate.counts()
	out := Stats{
		Counts:     counts,
		USM:        counts.USM(g.cfg.Weights),
		LBCSignals: map[string]int{},
	}
	for _, c := range children {
		out.CFlex += c.CFlex
		out.DegradedItems += c.DegradedItems
		out.UpdatesApplied += c.UpdatesApplied
		out.UpdatesDropped += c.UpdatesDropped
		out.QueueLength += c.QueueLength
		out.StaleItems += c.StaleItems
		out.QueriesShed += c.QueriesShed
		out.QueriesPanicked += c.QueriesPanicked
		out.QueriesCanceled += c.QueriesCanceled
		out.QueriesDrained += c.QueriesDrained
		out.LBCDecisions += c.LBCDecisions
		for k, v := range c.LBCSignals {
			out.LBCSignals[k] += v
		}
		if c.RetryAfterSeconds > out.RetryAfterSeconds {
			out.RetryAfterSeconds = c.RetryAfterSeconds
		}
		if c.Window != nil {
			if out.Window == nil {
				out.Window = &WindowStats{Seconds: c.Window.Seconds, Covered: c.Window.Covered}
			}
			out.Window.Counts.Add(c.Window.Counts)
			if c.Window.Covered < out.Window.Covered {
				out.Window.Covered = c.Window.Covered
			}
		}
	}
	out.CFlex /= float64(len(g.shards))
	if out.Window != nil {
		out.Window.USM = out.Window.Counts.USM(g.cfg.Weights)
	}
	out.Shards = children
	return out
}

// slowTop merges the shards' top-N-slowest trackers into one global
// top-N, slowest first (ties by query id, matching a single server).
func (g *Sharded) slowTop(n int) []slowEntry {
	var all []slowEntry
	for _, s := range g.shards {
		all = append(all, s.slowTop(0)...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Latency != all[j].Latency {
			return all[i].Latency > all[j].Latency
		}
		return all[i].Query < all[j].Query
	})
	if n > 0 && n < len(all) {
		all = all[:n]
	}
	return all
}

// gateObs is the front door's lock-free logical accounting: one tally
// per gathered outcome, aggregated into the global USM gauge on every
// observation. Canceled queries tally separately and never enter the
// USM, mirroring the single server.
type gateObs struct {
	success  atomic.Int64
	rejected atomic.Int64
	dmf      atomic.Int64
	dsf      atomic.Int64
	canceled atomic.Int64
	usm      *metrics.Gauge
	weights  usm.Weights
}

func (o *gateObs) observe(out Outcome) {
	switch out {
	case OutcomeSuccess:
		o.success.Add(1)
	case OutcomeRejected:
		o.rejected.Add(1)
	case OutcomeDMF:
		o.dmf.Add(1)
	case OutcomeDSF:
		o.dsf.Add(1)
	case OutcomeCanceled:
		o.canceled.Add(1)
		return
	}
	o.usm.Set(o.counts().USM(o.weights))
}

func (o *gateObs) counts() usm.Counts {
	return usm.Counts{
		Success:  int(o.success.Load()),
		Rejected: int(o.rejected.Load()),
		DMF:      int(o.dmf.Load()),
		DSF:      int(o.dsf.Load()),
	}
}
