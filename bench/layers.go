package main

import (
	"fmt"
	"sort"
	"time"

	"unitdb/internal/stats"
)

// perLayerMetrics computes the traced run's layer metrics over the
// measured segment: the self times that partition the client span, the
// Stats deltas of the algorithm core, and the harness's own figures.
//
// Seen from outside, one query's client span nests as
//
//	client ⊃ handler ⊃ QueryCtx (response Latency) ⊃ stages (Stages.Total = QueueWait + Exec)
//
// and a layer's self time is its span minus the span inside it:
// transport = client − handler, handler = handler − Latency, and
// Latency − Stages.Total is admission (one server) or scatter, slice
// admission and gather (the sharded front door, which returns only the
// slowest slice's stages). On a direct call client and QueryCtx coincide,
// so transport and handler are 0: those layers did no work.
func (run *liveRun) perLayerMetrics(res *result) {
	from, to := run.plan.measuredFrom(), run.plan.total()
	qs := window(run.queries, from, to)
	us := window(run.updates, from, to)
	if len(qs) == 0 || len(us) == 0 {
		res.problemf("traced segment holds %d queries and %d updates", len(qs), len(us))
		return
	}
	p50 := func(name string, keep func(*rec) (float64, bool)) float64 {
		v, n, beyond := segmentMedian(pick(qs, keep), from, to, 0.5)
		res.set(name, v, quantileNote(n, beyond))
		return v
	}
	all := func(f func(*rec) float64) func(*rec) (float64, bool) {
		return func(r *rec) (float64, bool) { return f(r), r.outcome != outInvalid }
	}
	overHTTP, sharded := run.spec.overHTTP, run.spec.shards > 0
	inner := func(r *rec) time.Duration { // the span just outside QueryCtx
		if overHTTP {
			return r.handler
		}
		return r.end - r.start
	}

	client := p50("bench.client_span_p50_us", all(func(r *rec) float64 { return micros(r.end - r.start) }))
	transport := p50("server.client.transport_self_us", all(func(r *rec) float64 { return micros(r.end - r.start - inner(r)) }))
	handler := p50("server.http.handler_self_us", all(func(r *rec) float64 {
		if !overHTTP {
			return 0
		}
		return micros(r.handler - r.srvLatency)
	}))
	front := func(r *rec) float64 { return micros(r.srvLatency) - r.stageTotal*1e6 }
	zero := func(*rec) float64 { return 0 }
	admitOf, gatherOf := front, zero
	if sharded {
		admitOf, gatherOf = zero, front
	}
	admit := p50("server.admit_self_us", all(admitOf))
	gather := p50("server.shard.gather_self_us", all(gatherOf))

	// The partition's last two parts over every answered query, zeros
	// included, so the parts describe the same population as the whole.
	waitAll, _, _ := segmentMedian(pick(qs, all(func(r *rec) float64 { return r.queueWait * 1e6 })), from, to, 0.5)
	execAll, _, _ := segmentMedian(pick(qs, all(func(r *rec) float64 { return r.exec * 1e6 })), from, to, 0.5)
	parts := transport + handler + admit + gather + waitAll + execAll
	ratio := 0.0
	if client > 0 {
		ratio = parts / client
	}
	note := fmt.Sprintf("sum of part p50s %.1f us / client p50 %.1f us", parts, client)
	if ratio < 0.9 || ratio > 1.1 {
		note += " (OFF BY MORE THAN 10%)"
	}
	res.set("bench.reconcile_ratio", ratio, note)

	// Stage times among the queries that were queued or run at all.
	waits := pick(qs, func(r *rec) (float64, bool) { return r.queueWait * 1e3, r.queued })
	for _, q := range []struct {
		name string
		q    float64
	}{{"server.queue_wait_p50_ms", 0.5}, {"server.queue_wait_p90_ms", 0.9}} {
		v, n, beyond := segmentMedian(waits, from, to, q.q)
		res.set(q.name, v, quantileNote(n, beyond))
	}
	p50("server.exec_p50_ms", func(r *rec) (float64, bool) { return r.exec * 1e3, r.exec > 0 })
	p50("server.exec_overrun_us", func(r *rec) (float64, bool) {
		return r.exec*1e6 - micros(r.work), r.outcome == outSuccess
	})

	res.set("server.queue_len_mean", stats.Mean(run.queueLen), fmt.Sprintf("n=%d samples of Stats().QueueLength", len(run.queueLen)))
	var lat, upd, late []float64
	for _, r := range qs {
		if r.outcome == outSuccess {
			lat = append(lat, millis(r.end-r.at))
		}
		late = append(late, millis(r.late))
	}
	for _, u := range us {
		upd = append(upd, micros(u.end-u.start))
		late = append(late, millis(u.late))
	}
	sort.Float64s(lat)
	sort.Float64s(upd)
	sort.Float64s(late)
	res.set("server.latency_p99_ms", percentile(lat, 0.99), fmt.Sprintf("n=%d, whole segment, diagnostic", len(lat)))
	res.set("server.update_call_p99_us", percentile(upd, 0.99), fmt.Sprintf("n=%d, whole segment, diagnostic", len(upd)))
	res.set("bench.gen_late_p99_ms", percentile(late, 0.99), fmt.Sprintf("n=%d", len(late)))
	res.set("bench.gen_late_max_ms", percentile(late, 1), "")

	// The algorithm core, from Stats at the segment's two edges.
	a, b := run.bounds[2].stats, run.bounds[3].stats
	res.set("server.shed", float64(b.QueriesShed-a.QueriesShed), "")
	res.set("server.canceled", float64(b.QueriesCanceled-a.QueriesCanceled), "")
	res.set("core.admission.cflex_final", b.CFlex, "")
	res.set("core.control.decisions", float64(b.LBCDecisions-a.LBCDecisions), "")
	for metric, signal := range map[string]string{
		"core.control.loosen":  "loosen_ac",
		"core.control.tighten": "tighten_ac",
		"core.control.degrade": "degrade_update",
		"core.control.upgrade": "upgrade_update",
	} {
		res.set(metric, float64(b.LBCSignals[signal]-a.LBCSignals[signal]), "")
	}
	res.set("core.ufm.degraded_items_final", float64(b.DegradedItems), "")
	applied, dropped := b.UpdatesApplied-a.UpdatesApplied, b.UpdatesDropped-a.UpdatesDropped
	res.set("core.ufm.update_drop_ratio", ratioOf(dropped, applied+dropped), "")
	res.set("datastore.stale_items_final", float64(b.StaleItems), "")
	total := b.Counts.Total() - a.Counts.Total()
	res.set("core.admission.reject_ratio", ratioOf(b.Counts.Rejected-a.Counts.Rejected, total), "")
	res.set("core.usm.dmf_ratio", ratioOf(b.Counts.DMF-a.Counts.DMF, total), "")
	res.set("core.usm.dsf_ratio", ratioOf(b.Counts.DSF-a.Counts.DSF, total), "")

	run.shardMetrics(res)

	// The harness. The reference segment ran untraced on the same server
	// just before the traced one.
	traced := run.bounds[3].usage.since(run.bounds[2].usage)
	res.set("bench.cpu_util", traced.cpuUtil(), "process CPU / (wall x GOMAXPROCS)")
	ref := run.bounds[2].usage.since(run.bounds[1].usage)
	refOps := len(window(run.queries, run.plan.warm, from))
	overhead := 0.0
	if refOps > 0 && ref.cpu > 0 {
		overhead = traced.cpuMicrosPerOp(len(qs)) / ref.cpuMicrosPerOp(refOps)
	}
	res.set("bench.span_overhead_ratio", overhead,
		fmt.Sprintf("traced %.1f / untraced %.1f cpu us/op; %d spans flushed in %v", traced.cpuMicrosPerOp(len(qs)), ref.cpuMicrosPerOp(max(refOps, 1)), run.spans, run.flush.Round(time.Millisecond)))
}

func ratioOf(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// shardMetrics describes how the front door spread the run's queries.
// Stats is cumulative, so these cover the whole run, warm-up included.
func (run *liveRun) shardMetrics(res *result) {
	shards := run.final.Shards
	if len(shards) == 0 {
		for _, name := range []string{"server.shard.touched_mean", "server.shard.imbalance", "server.shard.wasted_slice_ratio"} {
			res.set(name, 0, "unsharded")
		}
		return
	}
	// A slice is useful when its logical query was not refused: a refused
	// query's slices that other shards admitted ran for nothing.
	sent := append(run.burst, run.queries...)
	touched, useful := 0, 0
	for _, r := range sent {
		touched += r.touched
		if r.outcome != outRejected && r.outcome != outInvalid {
			useful += r.touched
		}
	}
	res.set("server.shard.touched_mean", float64(touched)/float64(len(sent)), "")
	executed, most := 0, 0
	for _, s := range shards {
		ran := s.Counts.Total() - s.Counts.Rejected
		executed += ran
		if ran > most {
			most = ran
		}
	}
	res.set("server.shard.imbalance", ratioOf(most*len(shards), executed), "busiest shard's executed slices / mean")
	res.set("server.shard.wasted_slice_ratio", ratioOf(executed-useful, executed), fmt.Sprintf("%d executed, %d useful", executed, useful))
}
