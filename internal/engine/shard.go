// Sharding: N independent UNIT engines behind one front door. Data items
// are partitioned across shards by a hash of the item id; each shard is a
// complete engine — its own ready queue, lottery, LBC, accountant, and a
// seed derived from the run seed by the shard index — so a sharded run is
// deterministic and replayable at any shard count. Multi-item queries
// scatter across the shards owning their items and gather at the front
// door:
//
//   - freshness composes as the min over shard answers (Eq. 1 is itself a
//     min over items, so partitioning the read set cannot change it);
//   - admission is admit-iff-every-touched-shard-admits: one shard's
//     rejection rejects the logical query, and the rejection is counted
//     exactly once, at the front door, never per shard;
//   - a deadline miss on any slice is a logical DMF; an abandoned slice
//     (client disconnect) abandons the logical query, which then produces
//     no outcome at all, mirroring the single-engine contract.
//
// DESIGN.md §13 documents the full story.
package engine

import (
	"fmt"
	"math"
	"strconv"

	"unitdb/internal/core/usm"
	"unitdb/internal/experiments/runner"
	"unitdb/internal/obs/trace"
	"unitdb/internal/txn"
	"unitdb/internal/workload"
)

// ShardOf maps a data item id to its owning shard. The splitmix64
// finalizer decorrelates adjacent ids (a range of hot items spreads over
// all shards instead of landing on one), and the conversion through
// uint64 is total, so any int — including the negative ids a fuzzer
// feeds the router — maps to a shard in [0, shards).
func ShardOf(item, shards int) int {
	if shards <= 1 {
		return 0
	}
	z := uint64(int64(item))
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(shards))
}

// ShardSeed derives shard's seed from a base seed using the same
// DeriveSeed scheme the experiment sweeps use for cells, so a shard
// draws the same randomness no matter how the fan-out is scheduled.
// At shards <= 1 the base seed passes through untouched — sharding is a
// strict no-op at N=1, bitwise included.
func ShardSeed(base uint64, shard, shards int) uint64 {
	if shards <= 1 {
		return base
	}
	return runner.DeriveSeed(base, "shard", strconv.Itoa(shard))
}

// PartitionItems routes an item-id list to per-shard groups. Input order
// is preserved within each group; duplicates and out-of-range ids pass
// through untouched (the router routes, the engine validates), so the
// groups' concatenation is always a permutation-by-shard of the input.
func PartitionItems(items []int, shards int) [][]int {
	if shards < 1 {
		shards = 1
	}
	groups := make([][]int, shards)
	for _, it := range items {
		s := ShardOf(it, shards)
		groups[s] = append(groups[s], it)
	}
	return groups
}

// PartitionWorkload splits a workload into shards per-shard workloads.
// Every shard keeps the full NumItems id space (untouched items simply
// stay fresh), updates route to the shard owning their item, and each
// multi-item query splits into one slice per touched shard with its
// execution demand divided proportionally to the slice's share of the
// read set. Slices carry GatherID = logical query index + 1 so the
// front door can reassemble them. The second result counts the slices
// of each logical query (the gather layer's expectation: fewer answers
// than slices means a slice was abandoned).
func PartitionWorkload(w *workload.Workload, shards int) ([]*workload.Workload, []int) {
	if shards < 1 {
		shards = 1
	}
	parts := make([]*workload.Workload, shards)
	for s := range parts {
		parts[s] = &workload.Workload{
			Name:        w.Name,
			NumItems:    w.NumItems,
			Duration:    w.Duration,
			QueryCounts: make([]int, w.NumItems),
			Preferences: w.Preferences,
		}
		if w.UpdateCounts != nil {
			parts[s].UpdateCounts = make([]int, w.NumItems)
		}
	}
	sliceCounts := make([]int, len(w.Queries))
	for i := range w.Queries {
		q := &w.Queries[i]
		gather := int64(i) + 1
		if len(q.Items) == 1 {
			// Single-item fast path: no split, full demand, one slice.
			s := ShardOf(q.Items[0], shards)
			spec := *q
			spec.GatherID = gather
			parts[s].Queries = append(parts[s].Queries, spec)
			parts[s].QueryCounts[q.Items[0]]++
			sliceCounts[i] = 1
			continue
		}
		groups := PartitionItems(q.Items, shards)
		for s, group := range groups {
			if len(group) == 0 {
				continue
			}
			sliceCounts[i]++
			frac := float64(len(group)) / float64(len(q.Items))
			parts[s].Queries = append(parts[s].Queries, workload.QuerySpec{
				Arrival:     q.Arrival,
				Items:       group,
				Exec:        q.Exec * frac,
				EstExec:     q.EstExec * frac,
				RelDeadline: q.RelDeadline,
				FreshReq:    q.FreshReq,
				PrefClass:   q.PrefClass,
				GatherID:    gather,
			})
			for _, it := range group {
				parts[s].QueryCounts[it]++
			}
		}
	}
	for _, u := range w.Updates {
		s := ShardOf(u.Item, shards)
		parts[s].Updates = append(parts[s].Updates, u)
		if parts[s].UpdateCounts != nil && u.Item < len(w.UpdateCounts) {
			parts[s].UpdateCounts[u.Item] = w.UpdateCounts[u.Item]
		}
	}
	return parts, sliceCounts
}

// GatherAnswer is one shard's answer for one slice of a logical query.
type GatherAnswer struct {
	Gather  int64 // logical query index + 1
	Shard   int
	Outcome txn.Outcome
	Fresh   float64 // read freshness (committed slices)
	Latency float64 // presentation → resolution, virtual seconds
}

// shardObserver wraps one shard's policy to capture every finalized
// slice outcome for the front door's gather pass. It is pure
// observation — every hook delegates to the wrapped policy unchanged —
// so a shard runs bitwise-identically to the same engine without it.
// Abandoned slices never reach OnQueryDone (the engine contract), which
// is exactly how the gather layer detects them: fewer answers than
// slices.
type shardObserver struct {
	Policy
	e       *Engine
	answers []GatherAnswer
}

// Attach implements Policy.
func (o *shardObserver) Attach(e *Engine) {
	o.e = e
	o.Policy.Attach(e)
}

// OnQueryDone implements Policy, capturing the slice's answer.
func (o *shardObserver) OnQueryDone(q *txn.Txn) {
	if q.GatherID > 0 {
		o.answers = append(o.answers, GatherAnswer{
			Gather:  q.GatherID,
			Outcome: q.Outcome,
			Fresh:   q.ReadFreshness,
			Latency: o.e.Now() - q.Arrival,
		})
	}
	o.Policy.OnQueryDone(q)
}

// ShardedConfig parameterizes one run behind the front door. It is the
// only way a simulator cell runs: at Shards <= 1 the front door is the
// plain engine, at N > 1 it partitions, fans out and gathers.
type ShardedConfig struct {
	// Shards is the shard count; values <= 1 run the plain single engine
	// (bitwise-identical to a direct New+Run with the same Config).
	Shards   int
	Workload *workload.Workload
	Weights  usm.Weights
	// Seed is the engine seed base; shard i runs at ShardSeed(Seed, i, N).
	Seed uint64
	// PolicySeed is the policy seed base, derived per shard the same way
	// and handed to the Policy factory.
	PolicySeed   uint64
	PhaseUpdates bool
	// Policy builds shard's policy from its derived seed. Factories are
	// invoked sequentially in shard order before any engine runs, so a
	// harness may capture per-shard state (observers, injectors) by index.
	Policy func(shard int, seed uint64) (Policy, error)
	// Disturbance, when non-nil, builds shard's fault injector (also
	// called sequentially in shard order). Each shard needs its own
	// instance: injectors keep tallies.
	Disturbance func(shard int) Disturbance
	// Trace, when non-nil, receives the run's trace. One shard records
	// into it directly; N > 1 shards record into rings of its capacities
	// that trace.Merge folds into it afterwards, shard-stamped and totally
	// ordered, so sharded dumps replay byte-identically too.
	Trace *trace.Recorder
	// Workers bounds the fan-out concurrency (runner.Options semantics:
	// 0 means GOMAXPROCS, 1 is the reference sequential path). Results
	// are identical at any worker count.
	Workers int
}

// ShardRun is the full detail of one sharded run.
type ShardRun struct {
	// Merged is the front door's logical view: outcomes gathered per
	// logical query, freshness as the min over slices, one rejection per
	// rejected query.
	Merged *Results
	// PerShard holds each shard's own Results (index = shard). At
	// Shards <= 1 it is the single engine's Results.
	PerShard []*Results
	// Answers holds, per logical query index, its slice answers in shard
	// order. Nil at Shards <= 1 (no gather happens).
	Answers [][]GatherAnswer
}

// RunSharded runs the workload across cfg.Shards engine shards and
// returns the merged, front-door view of the results.
func RunSharded(cfg ShardedConfig) (*Results, error) {
	run, err := RunShardedDetail(cfg)
	if err != nil {
		return nil, err
	}
	return run.Merged, nil
}

// RunShardedDetail runs the workload across cfg.Shards engine shards and
// returns the merged results plus the per-shard detail the invariance
// tests pin. One shard is the pre-sharding engine, verbatim: undecorated
// seeds, the whole workload, the caller's recorder, no observer, no
// gather and no goroutine. The golden tests pin this bitwise.
func RunShardedDetail(cfg ShardedConfig) (*ShardRun, error) {
	if cfg.Workload == nil {
		return nil, fmt.Errorf("engine: nil workload")
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("engine: nil policy factory")
	}
	n := max(cfg.Shards, 1)
	parts, sliceCounts := []*workload.Workload{cfg.Workload}, []int(nil)
	if n > 1 {
		parts, sliceCounts = PartitionWorkload(cfg.Workload, n)
	}
	engines := make([]*Engine, n)
	var observers []*shardObserver
	var rings []*trace.Recorder
	for i := range n {
		pol, err := cfg.Policy(i, ShardSeed(cfg.PolicySeed, i, n))
		if err != nil {
			return nil, err
		}
		ecfg := Config{Workload: parts[i], Weights: cfg.Weights, Seed: ShardSeed(cfg.Seed, i, n), PhaseUpdates: cfg.PhaseUpdates, Trace: cfg.Trace}
		if cfg.Disturbance != nil {
			ecfg.Disturbance = cfg.Disturbance(i)
		}
		if n > 1 {
			obs := &shardObserver{Policy: pol}
			observers = append(observers, obs)
			pol = obs
			if cfg.Trace != nil {
				ecfg.Trace = trace.New(cfg.Trace.EventCap(), cfg.Trace.DecisionCap())
				rings = append(rings, ecfg.Trace)
			}
		}
		e, err := New(ecfg, pol)
		if err != nil {
			return nil, err
		}
		engines[i] = e
	}
	if n == 1 {
		res, err := engines[0].Run()
		if err != nil {
			return nil, err
		}
		return &ShardRun{Merged: res, PerShard: []*Results{res}}, nil
	}
	// Shards are independent simulations over disjoint item sets, so they
	// fan out across the deterministic pool; results land by shard index
	// regardless of scheduling.
	perShard, err := runner.Map(runner.Options{Workers: cfg.Workers}, engines,
		func(_ int, e *Engine) (*Results, error) { return e.Run() })
	if err != nil {
		return nil, err
	}
	if cfg.Trace != nil {
		trace.Merge(cfg.Trace, rings...)
	}
	byQuery := gatherAnswers(len(cfg.Workload.Queries), observers)
	merged := mergeShardResults(cfg.Weights, cfg.Workload, perShard, byQuery, sliceCounts)
	return &ShardRun{Merged: merged, PerShard: perShard, Answers: byQuery}, nil
}

// gatherAnswers regroups the shards' answer streams by logical query.
// Iteration is shard order, then per-shard completion order — both
// deterministic — so the grouped slices replay identically.
func gatherAnswers(numQueries int, observers []*shardObserver) [][]GatherAnswer {
	byQuery := make([][]GatherAnswer, numQueries)
	for s, obs := range observers {
		for _, a := range obs.answers {
			i := int(a.Gather) - 1
			if i < 0 || i >= numQueries {
				continue
			}
			a.Shard = s
			byQuery[i] = append(byQuery[i], a)
		}
	}
	return byQuery
}

// mergeSlices folds one logical query's slice answers into its logical
// outcome. Precedence: any rejected slice rejects the query (admit iff
// every touched shard admits, one rejection tallied); else any deadline
// miss is a logical DMF; else every slice committed and Eq. 1 composes —
// freshness is the min over slices, the query succeeds iff that min
// meets the requirement (equivalently: iff no slice was stale), and
// latency is the slowest slice's.
func mergeSlices(subs []GatherAnswer, freshReq float64) (o txn.Outcome, fresh, latency float64) {
	rejected, dmf := false, false
	minFresh, maxLat := math.Inf(1), 0.0
	for _, a := range subs {
		switch a.Outcome {
		case txn.OutcomeRejected:
			rejected = true
		case txn.OutcomeDMF:
			dmf = true
		default: // success or DSF: the slice committed and sampled freshness
			if a.Fresh < minFresh {
				minFresh = a.Fresh
			}
			if a.Latency > maxLat {
				maxLat = a.Latency
			}
		}
	}
	if rejected {
		return txn.OutcomeRejected, 0, 0
	}
	if dmf {
		return txn.OutcomeDMF, 0, 0
	}
	if minFresh >= freshReq {
		return txn.OutcomeSuccess, minFresh, maxLat
	}
	return txn.OutcomeDSF, minFresh, maxLat
}

// mergeShardResults assembles the front door's logical Results. Outcomes
// are re-tallied per logical query through a fresh accountant (so the
// merged USM is Eq. 5 over logical queries, not a sum of per-slice
// tallies); engine-internal counters sum across shards (their item sets
// are disjoint, so the sums are exact); CPU utilizations average (N
// shards are N CPUs); QueriesAbandoned counts logical queries that lost
// at least one slice to a disconnect, preserving the conservation law
// Counts.Total() + QueriesAbandoned == logical queries presented.
func mergeShardResults(weights usm.Weights, w *workload.Workload, perShard []*Results, byQuery [][]GatherAnswer, sliceCounts []int) *Results {
	macct := usm.NewClassAccountant(weights, w.Preferences)
	freshSum, latencySum := 0.0, 0.0
	committed, abandoned := 0, 0
	for i := range w.Queries {
		subs := byQuery[i]
		if len(subs) < sliceCounts[i] {
			// A slice vanished without an outcome: its client disconnected.
			// Nobody is listening for the logical answer either.
			abandoned++
			continue
		}
		o, fresh, lat := mergeSlices(subs, w.Queries[i].FreshReq)
		if o == txn.OutcomeSuccess || o == txn.OutcomeDSF {
			freshSum += fresh
			latencySum += lat
			committed++
		}
		macct.Record(o, w.Queries[i].PrefClass)
	}

	tally := macct.Total()
	counts := tally.Counts
	rs, rr, rfm, rfs := counts.Ratios()
	r := &Results{
		Policy:           perShard[0].Policy,
		Trace:            w.Name,
		Weights:          weights,
		Counts:           counts,
		USM:              tally.USM(),
		Duration:         w.Duration,
		SuccessRatio:     rs,
		RejectionRatio:   rr,
		DMFRatio:         rfm,
		DSFRatio:         rfs,
		QueriesAbandoned: abandoned,
		AccessCounts:     make([]int, w.NumItems),
		AppliedCounts:    make([]int, w.NumItems),
		DroppedCounts:    make([]int, w.NumItems),
	}
	if committed > 0 {
		r.AvgFreshness = freshSum / float64(committed)
		r.AvgLatency = latencySum / float64(committed)
	}
	for _, p := range perShard {
		r.UpdatesApplied += p.UpdatesApplied
		r.UpdatesDropped += p.UpdatesDropped
		r.UpdatesSuperseded += p.UpdatesSuperseded
		r.RefreshesIssued += p.RefreshesIssued
		r.UpdatesLost += p.UpdatesLost
		r.QueriesStalled += p.QueriesStalled
		r.HPAborts += p.HPAborts
		r.Preemptions += p.Preemptions
		r.Restarts += p.Restarts
		r.CPUUtilization += p.CPUUtilization
		r.QueryCPU += p.QueryCPU
		r.UpdateCPU += p.UpdateCPU
		r.Events += p.Events
		addCounts(r.AccessCounts, p.AccessCounts)
		addCounts(r.AppliedCounts, p.AppliedCounts)
		addCounts(r.DroppedCounts, p.DroppedCounts)
	}
	n := float64(len(perShard))
	r.CPUUtilization /= n
	r.QueryCPU /= n
	r.UpdateCPU /= n
	classes := macct.Classes()
	perClass := macct.PerClass()
	for i := range classes {
		r.PerClass = append(r.PerClass, ClassResult{
			Weights:  classes[i],
			Counts:   perClass[i],
			ClassUSM: perClass[i].USM(classes[i]),
		})
	}
	return r
}

// addCounts accumulates src into dst element-wise. Shards own disjoint
// item sets, so per-item sums across shards are exact unions.
func addCounts(dst, src []int) {
	for i := range src {
		if i < len(dst) {
			dst[i] += src[i]
		}
	}
}
