package engine

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"unitdb/internal/core/usm"
	"unitdb/internal/obs/trace"
	"unitdb/internal/stats"
	"unitdb/internal/txn"
	"unitdb/internal/workload"
)

// randomMultiWorkload builds a small random but valid workload whose
// queries read multi-item sets, so partitioning genuinely scatters them
// across shards.
func randomMultiWorkload(rng *stats.RNG) *workload.Workload {
	items := 4 + rng.Intn(12)
	duration := 50 + rng.Float64()*150
	w := &workload.Workload{
		Name:         "shard-prop",
		NumItems:     items,
		Duration:     duration,
		QueryCounts:  make([]int, items),
		UpdateCounts: make([]int, items),
	}
	nq := 20 + rng.Intn(60)
	arr := 0.0
	for i := 0; i < nq; i++ {
		arr += rng.Exp(duration / float64(nq+1))
		if arr >= duration {
			break
		}
		k := 1 + rng.Intn(4)
		if k > items {
			k = items
		}
		seen := make(map[int]bool, k)
		set := make([]int, 0, k)
		for len(set) < k {
			it := rng.Intn(items)
			if !seen[it] {
				seen[it] = true
				set = append(set, it)
			}
		}
		for _, it := range set {
			w.QueryCounts[it]++
		}
		w.Queries = append(w.Queries, workload.QuerySpec{
			Arrival:     arr,
			Items:       set,
			Exec:        0.05 + rng.Float64()*2,
			EstExec:     0.05 + rng.Float64()*2,
			RelDeadline: 0.1 + rng.Float64()*15,
			FreshReq:    0.5 + rng.Float64()*0.5,
			PrefClass:   -1,
		})
	}
	nfeeds := rng.Intn(items)
	for item := 0; item < nfeeds; item++ {
		w.Updates = append(w.Updates, workload.UpdateSpec{
			Item:   item,
			Period: 1 + rng.Float64()*20,
			Exec:   0.05 + rng.Float64()*2,
		})
		w.UpdateCounts[item] = int(duration / (1 + rng.Float64()*20))
	}
	return w
}

// chaosFactory builds per-shard chaos policies (random admits/drops),
// exercising every outcome class in the gather layer.
func chaosFactory(shard int, seed uint64) (Policy, error) {
	return &chaosPolicy{rng: stats.NewRNG(seed)}, nil
}

// shardTestDisturbance is a pass-through Disturbance whose client
// disconnects every query after a fixed window, forcing abandoned
// slices through the gather layer.
type shardTestDisturbance struct{ after float64 }

func (d shardTestDisturbance) ScaleExec(float64) float64      { return 1 }
func (d shardTestDisturbance) BlockFeed(int, float64) bool    { return false }
func (d shardTestDisturbance) FeedRate(int, float64) float64  { return 1 }
func (d shardTestDisturbance) ReleaseQuery(t float64) float64 { return t }
func (d shardTestDisturbance) ScaleQueryExec(float64) float64 { return 1 }
func (d shardTestDisturbance) DisconnectAfter(float64) float64 {
	return d.after
}

func TestShardOfInRange(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 8, 64} {
		for _, item := range []int{0, 1, 7, 1023, -1, -999, 1 << 30} {
			s := ShardOf(item, shards)
			if s < 0 || s >= shards {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", item, shards, s)
			}
		}
	}
	// Dense id ranges must spread: over 1024 sequential ids and 8 shards,
	// no shard may own everything (the splitmix64 mix, not id mod N).
	counts := make([]int, 8)
	for item := 0; item < 1024; item++ {
		counts[ShardOf(item, 8)]++
	}
	for s, n := range counts {
		if n == 0 || n == 1024 {
			t.Fatalf("shard %d owns %d of 1024 sequential items — no spread", s, n)
		}
	}
}

func TestShardOfDeterministic(t *testing.T) {
	for item := -50; item < 50; item++ {
		if ShardOf(item, 8) != ShardOf(item, 8) {
			t.Fatalf("ShardOf unstable for item %d", item)
		}
	}
}

func TestPartitionItemsUnion(t *testing.T) {
	cases := [][]int{
		{},
		{0},
		{3, 5},
		{0, 1, 2, 3, 4, 5, 6, 7},
		{7, 7, 7}, // duplicates pass through; the router routes, the engine validates
		{-3, 0, 12, -3},
	}
	for _, items := range cases {
		for _, shards := range []int{1, 2, 8} {
			groups := PartitionItems(items, shards)
			if len(groups) != shards {
				t.Fatalf("PartitionItems(%v, %d): %d groups", items, shards, len(groups))
			}
			var union []int
			for s, g := range groups {
				for _, it := range g {
					if ShardOf(it, shards) != s {
						t.Fatalf("item %d in group %d, owned by %d", it, s, ShardOf(it, shards))
					}
					union = append(union, it)
				}
			}
			if len(union) != len(items) {
				t.Fatalf("PartitionItems(%v, %d): union has %d items", items, shards, len(union))
			}
			// Multiset equality: sort-insensitive count comparison.
			want := map[int]int{}
			got := map[int]int{}
			for _, it := range items {
				want[it]++
			}
			for _, it := range union {
				got[it]++
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("PartitionItems(%v, %d): union %v is not the input multiset", items, shards, union)
			}
		}
	}
}

func TestPartitionWorkloadSingleItemFastPath(t *testing.T) {
	w := &workload.Workload{
		Name:     "fast",
		NumItems: 16,
		Duration: 100,
		Queries: []workload.QuerySpec{
			{Arrival: 1, Items: []int{5}, Exec: 0.4, EstExec: 0.5, RelDeadline: 2, FreshReq: 0.9, PrefClass: -1},
		},
		QueryCounts: make([]int, 16),
	}
	w.QueryCounts[5] = 1
	parts, sliceCounts := PartitionWorkload(w, 8)
	if sliceCounts[0] != 1 {
		t.Fatalf("single-item query has %d slices, want 1", sliceCounts[0])
	}
	owner := ShardOf(5, 8)
	for s, p := range parts {
		if s == owner {
			if len(p.Queries) != 1 {
				t.Fatalf("owner shard has %d queries", len(p.Queries))
			}
			q := p.Queries[0]
			orig := w.Queries[0]
			orig.GatherID = 1
			if !reflect.DeepEqual(q, orig) {
				t.Fatalf("fast path altered the spec: got %+v want %+v", q, orig)
			}
		} else if len(p.Queries) != 0 {
			t.Fatalf("shard %d has %d queries, want 0", s, len(p.Queries))
		}
	}
}

func TestPartitionWorkloadSplit(t *testing.T) {
	rng := stats.NewRNG(11)
	for trial := 0; trial < 20; trial++ {
		w := randomMultiWorkload(rng.Split())
		for _, shards := range []int{2, 3, 8} {
			parts, sliceCounts := PartitionWorkload(w, shards)
			if len(parts) != shards {
				t.Fatalf("%d parts for %d shards", len(parts), shards)
			}
			totalSlices := 0
			for s, p := range parts {
				if err := p.Validate(); err != nil {
					t.Fatalf("shard %d workload invalid: %v", s, err)
				}
				totalSlices += len(p.Queries)
				for _, q := range p.Queries {
					for _, it := range q.Items {
						if ShardOf(it, shards) != s {
							t.Fatalf("shard %d slice reads item %d owned by %d", s, it, ShardOf(it, shards))
						}
					}
				}
			}
			wantSlices := 0
			for i, q := range w.Queries {
				groups := PartitionItems(q.Items, shards)
				nonEmpty := 0
				for _, g := range groups {
					if len(g) > 0 {
						nonEmpty++
					}
				}
				if sliceCounts[i] != nonEmpty {
					t.Fatalf("query %d: sliceCounts %d, want %d", i, sliceCounts[i], nonEmpty)
				}
				wantSlices += nonEmpty
			}
			if totalSlices != wantSlices {
				t.Fatalf("%d slices across shards, want %d", totalSlices, wantSlices)
			}
			// Per logical query, the slices' exec demand sums back to the
			// original (up to float rounding).
			for i, q := range w.Queries {
				sum := 0.0
				for _, p := range parts {
					for _, s := range p.Queries {
						if s.GatherID == int64(i)+1 {
							sum += s.Exec
						}
					}
				}
				if math.Abs(sum-q.Exec) > 1e-9 {
					t.Fatalf("query %d exec split sums to %v, want %v", i, sum, q.Exec)
				}
			}
		}
	}
}

// TestMergeSlices pins the cross-shard outcome precedence table: one
// rejection rejects the logical query (counted once); otherwise one
// deadline miss is a logical DMF; otherwise the committed slices compose
// by min freshness (Eq. 1).
func TestMergeSlices(t *testing.T) {
	const req = 0.9
	sub := func(o txn.Outcome, fresh, lat float64) GatherAnswer {
		return GatherAnswer{Outcome: o, Fresh: fresh, Latency: lat}
	}
	cases := []struct {
		name      string
		subs      []GatherAnswer
		want      txn.Outcome
		wantFresh float64
		wantLat   float64
	}{
		{"single-success", []GatherAnswer{sub(txn.OutcomeSuccess, 0.95, 1)}, txn.OutcomeSuccess, 0.95, 1},
		{"single-dsf", []GatherAnswer{sub(txn.OutcomeDSF, 0.5, 1)}, txn.OutcomeDSF, 0.5, 1},
		{"single-reject", []GatherAnswer{sub(txn.OutcomeRejected, 0, 0)}, txn.OutcomeRejected, 0, 0},
		{"single-dmf", []GatherAnswer{sub(txn.OutcomeDMF, 0, 0)}, txn.OutcomeDMF, 0, 0},
		{"all-success-min-fresh", []GatherAnswer{
			sub(txn.OutcomeSuccess, 0.99, 1), sub(txn.OutcomeSuccess, 0.92, 3), sub(txn.OutcomeSuccess, 0.95, 2),
		}, txn.OutcomeSuccess, 0.92, 3},
		{"one-stale-slice-dsf", []GatherAnswer{
			sub(txn.OutcomeSuccess, 0.99, 1), sub(txn.OutcomeDSF, 0.4, 2),
		}, txn.OutcomeDSF, 0.4, 2},
		{"reject-beats-commit", []GatherAnswer{
			sub(txn.OutcomeSuccess, 0.99, 1), sub(txn.OutcomeRejected, 0, 0),
		}, txn.OutcomeRejected, 0, 0},
		{"reject-beats-dmf", []GatherAnswer{
			sub(txn.OutcomeDMF, 0, 0), sub(txn.OutcomeRejected, 0, 0),
		}, txn.OutcomeRejected, 0, 0},
		{"dmf-beats-commit", []GatherAnswer{
			sub(txn.OutcomeSuccess, 0.99, 1), sub(txn.OutcomeDMF, 0, 0), sub(txn.OutcomeDSF, 0.2, 4),
		}, txn.OutcomeDMF, 0, 0},
	}
	for _, tc := range cases {
		o, fresh, lat := mergeSlices(tc.subs, req)
		if o != tc.want || fresh != tc.wantFresh || lat != tc.wantLat {
			t.Errorf("%s: got (%v, %v, %v), want (%v, %v, %v)",
				tc.name, o, fresh, lat, tc.want, tc.wantFresh, tc.wantLat)
		}
	}
}

// TestRunShardedSingleShardPassthrough pins the N=1 regression: the
// front door at one shard is the plain engine, DeepEqual included, and
// the caller's recorder passes straight through, so the trace dump is
// byte-identical to a direct New+Run with the same recorder.
func TestRunShardedSingleShardPassthrough(t *testing.T) {
	rng := stats.NewRNG(7)
	weights := usm.Weights{Cr: 0.25, Cfm: 0.75, Cfs: 0.25}
	for trial := 0; trial < 10; trial++ {
		w := randomMultiWorkload(rng.Split())
		directRec := trace.New(1<<16, 1<<16)
		direct, err := func() (*Results, error) {
			p, _ := chaosFactory(0, 99)
			cfg := NewConfig(w, weights, 13)
			cfg.Trace = directRec
			e, err := New(cfg, p)
			if err != nil {
				return nil, err
			}
			return e.Run()
		}()
		if err != nil {
			t.Fatal(err)
		}
		shardedRec := trace.New(1<<16, 1<<16)
		sharded, err := RunSharded(ShardedConfig{
			Shards:       1,
			Workload:     w,
			Weights:      weights,
			Seed:         13,
			PolicySeed:   99,
			PhaseUpdates: true,
			Policy:       chaosFactory,
			Trace:        shardedRec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(direct, sharded) {
			t.Fatalf("trial %d: shards=1 diverged from the plain engine:\n direct  %+v\n sharded %+v", trial, direct, sharded)
		}
		if got, want := jsonl(t, shardedRec), jsonl(t, directRec); len(want) == 0 || !bytes.Equal(got, want) {
			t.Fatalf("trial %d: shards=1 trace (%d bytes) differs from the plain engine's (%d bytes)", trial, len(got), len(want))
		}
	}
}

// TestRunShardedMergesShardTraces pins the N>1 trace path: the front
// door records each shard into a ring of the caller recorder's
// capacities and merges them into it, so its dump equals trace.Merge
// over per-shard rings built by hand from the same partition and seeds.
// A small capacity makes the rings wrap, pinning that they take the
// caller's capacities.
func TestRunShardedMergesShardTraces(t *testing.T) {
	const shards = 4
	weights := usm.Weights{Cr: 0.25, Cfm: 0.75, Cfs: 0.25}
	rng := stats.NewRNG(17)
	for trial, capacity := range []int{1 << 16, 64} {
		w := randomMultiWorkload(rng.Split())
		rec := trace.New(capacity, capacity)
		run, err := RunShardedDetail(ShardedConfig{
			Shards:       shards,
			Workload:     w,
			Weights:      weights,
			Seed:         13,
			PolicySeed:   99,
			PhaseUpdates: true,
			Policy:       chaosFactory,
			Trace:        rec,
		})
		if err != nil {
			t.Fatal(err)
		}

		parts, _ := PartitionWorkload(w, shards)
		rings := make([]*trace.Recorder, shards)
		for i := range rings {
			rings[i] = trace.New(capacity, capacity)
			p, _ := chaosFactory(i, ShardSeed(99, i, shards))
			cfg := NewConfig(parts[i], weights, ShardSeed(13, i, shards))
			cfg.Trace = rings[i]
			e, err := New(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, run.PerShard[i]) {
				t.Fatalf("trial %d shard %d: front-door shard diverged from a hand-built engine", trial, i)
			}
		}
		want := trace.New(capacity, capacity)
		trace.Merge(want, rings...)
		if got, want := jsonl(t, rec), jsonl(t, want); len(want) == 0 || !bytes.Equal(got, want) {
			t.Fatalf("trial %d: merged trace (%d bytes) differs from trace.Merge over hand-built rings (%d bytes)", trial, len(got), len(want))
		}
	}
}

// jsonl dumps a recorder's buffered stream.
func jsonl(t *testing.T, rec *trace.Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardAccountingProperties is the cross-shard conservation suite:
// outcome conservation globally and per shard, rejections counted
// exactly once, the merged USM re-derivable from the gathered answers
// within 1e-12, and logical freshness equal to the min over per-shard
// freshness.
func TestShardAccountingProperties(t *testing.T) {
	weights := usm.Weights{Cr: 0.25, Cfm: 0.75, Cfs: 0.25}
	rng := stats.NewRNG(23)
	for trial := 0; trial < 12; trial++ {
		w := randomMultiWorkload(rng.Split())
		for _, shards := range []int{2, 3, 8} {
			cfg := ShardedConfig{
				Shards:       shards,
				Workload:     w,
				Weights:      weights,
				Seed:         uint64(100 + trial),
				PolicySeed:   uint64(200 + trial),
				PhaseUpdates: true,
				Policy:       chaosFactory,
			}
			if trial%3 == 0 {
				// Every third trial disconnects clients quickly, driving
				// abandoned slices through the gather layer.
				cfg.Disturbance = func(int) Disturbance { return shardTestDisturbance{after: 0.3} }
			}
			run, err := RunShardedDetail(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := run.Merged

			// Global conservation: S+R+DMF+DSF+abandoned == presented.
			if got := m.Counts.Total() + m.QueriesAbandoned; got != len(w.Queries) {
				t.Fatalf("shards=%d trial=%d: merged conservation %d != presented %d", shards, trial, got, len(w.Queries))
			}

			// Per-shard conservation against that shard's own slice count.
			parts, sliceCounts := PartitionWorkload(w, shards)
			for s, p := range run.PerShard {
				if got := p.Counts.Total() + p.QueriesAbandoned; got != len(parts[s].Queries) {
					t.Fatalf("shards=%d trial=%d shard=%d: conservation %d != presented %d", shards, trial, s, got, len(parts[s].Queries))
				}
			}

			// Re-derive every logical outcome from the gathered answers
			// (independent reimplementation of the precedence), then check
			// the merged tallies: rejections counted exactly once, counts
			// exact, USM within 1e-12, freshness = min over slices.
			var want usm.Counts
			abandoned := 0
			freshSum, latSum := 0.0, 0.0
			committed := 0
			for i, q := range w.Queries {
				subs := run.Answers[i]
				if len(subs) < sliceCounts[i] {
					abandoned++
					continue
				}
				rejected, dmf := 0, 0
				minFresh := math.Inf(1)
				maxLat := 0.0
				for _, a := range subs {
					switch a.Outcome {
					case txn.OutcomeRejected:
						rejected++
					case txn.OutcomeDMF:
						dmf++
					default:
						if a.Fresh < minFresh {
							minFresh = a.Fresh
						}
						if a.Latency > maxLat {
							maxLat = a.Latency
						}
					}
				}
				switch {
				case rejected > 0:
					want.Rejected++ // exactly one tally, however many shards refused
				case dmf > 0:
					want.DMF++
				case minFresh >= q.FreshReq:
					want.Success++
					freshSum += minFresh
					latSum += maxLat
					committed++
				default:
					want.DSF++
					freshSum += minFresh
					latSum += maxLat
					committed++
				}
			}
			if want != m.Counts {
				t.Fatalf("shards=%d trial=%d: merged counts %+v, re-derived %+v", shards, trial, m.Counts, want)
			}
			if abandoned != m.QueriesAbandoned {
				t.Fatalf("shards=%d trial=%d: merged abandoned %d, re-derived %d", shards, trial, m.QueriesAbandoned, abandoned)
			}
			if got, wantUSM := m.USM, want.USM(weights); math.Abs(got-wantUSM) > 1e-12 {
				t.Fatalf("shards=%d trial=%d: merged USM %v, Eq. 5 over merged counts %v", shards, trial, got, wantUSM)
			}
			if committed > 0 {
				if math.Abs(m.AvgFreshness-freshSum/float64(committed)) > 1e-12 {
					t.Fatalf("shards=%d trial=%d: AvgFreshness %v, min-composed %v", shards, trial, m.AvgFreshness, freshSum/float64(committed))
				}
				if math.Abs(m.AvgLatency-latSum/float64(committed)) > 1e-12 {
					t.Fatalf("shards=%d trial=%d: AvgLatency %v, re-derived %v", shards, trial, m.AvgLatency, latSum/float64(committed))
				}
			}

			// Engine-internal counters are disjoint sums.
			applied := 0
			for _, p := range run.PerShard {
				applied += p.UpdatesApplied
			}
			if applied != m.UpdatesApplied {
				t.Fatalf("shards=%d trial=%d: UpdatesApplied %d != per-shard sum %d", shards, trial, m.UpdatesApplied, applied)
			}
		}
	}
}

// TestRunShardedWorkerInvariance pins the determinism contract: the
// whole ShardRun — merged results, per-shard results, gathered answers —
// replays DeepEqual-identically at any fan-out width.
func TestRunShardedWorkerInvariance(t *testing.T) {
	w := randomMultiWorkload(stats.NewRNG(31))
	var runs []*ShardRun
	for _, workers := range []int{1, 0, 3} {
		run, err := RunShardedDetail(ShardedConfig{
			Shards:       8,
			Workload:     w,
			Weights:      usm.Weights{Cr: 0.25, Cfm: 0.75, Cfs: 0.25},
			Seed:         41,
			PolicySeed:   43,
			PhaseUpdates: true,
			Policy:       chaosFactory,
			Workers:      workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
	}
	for i := 1; i < len(runs); i++ {
		if !reflect.DeepEqual(runs[0], runs[i]) {
			t.Fatalf("sharded run diverged between worker settings 1 and %d", i)
		}
	}
}

// FuzzShardRouter feeds arbitrary item-id sets and shard counts to the
// router: it must never panic, every id must map in-range, and the
// partition's union must be the input multiset.
func FuzzShardRouter(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, 8)
	f.Add([]byte{255, 255, 0}, 2)
	f.Add([]byte{}, 1)
	f.Add([]byte{7}, 0)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, -3)
	f.Fuzz(func(t *testing.T, data []byte, shards int) {
		items := make([]int, 0, len(data)/2+1)
		for i := 0; i+1 < len(data); i += 2 {
			// Signed 16-bit ids: negatives and duplicates included.
			items = append(items, int(int16(uint16(data[i])<<8|uint16(data[i+1]))))
		}
		groups := PartitionItems(items, shards)
		effective := shards
		if effective < 1 {
			effective = 1
		}
		if len(groups) != effective {
			t.Fatalf("%d groups for %d shards", len(groups), effective)
		}
		total := 0
		want := map[int]int{}
		got := map[int]int{}
		for _, it := range items {
			want[it]++
			s := ShardOf(it, effective)
			if s < 0 || s >= effective {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", it, effective, s)
			}
		}
		for s, g := range groups {
			for _, it := range g {
				if ShardOf(it, effective) != s {
					t.Fatalf("item %d routed to group %d, owned by %d", it, s, ShardOf(it, effective))
				}
				got[it]++
				total++
			}
		}
		if total != len(items) || !reflect.DeepEqual(want, got) {
			t.Fatalf("partition union is not the input multiset: %v vs %v", got, want)
		}
	})
}
