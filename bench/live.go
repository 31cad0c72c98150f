package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"unitdb/bench/load"
	"unitdb/internal/core/usm"
	"unitdb/internal/engine"
	"unitdb/internal/server"
	"unitdb/internal/stats"
)

// liveSpec describes one live workload: the server it builds and the
// traffic it sends.
type liveSpec struct {
	name     string
	shards   int  // 0 = server.New, n = server.NewSharded(cfg, n)
	workers  int  // query-execution pool (divided across shards)
	overHTTP bool // through server.Client and a loopback socket; else direct QueryCtx
	// closed runs one closed-loop client per processor, every updateEvery-th
	// operation an update; otherwise queries arrive open-loop Poisson at
	// rate per second beside a fixed-interval update feed at feedRate.
	closed      bool
	updateEvery int
	rate        float64
	feedRate    float64
	mix         load.Mix
}

// weights are the USM penalties of every live server (Table 2's
// high-penalty-on-DMF setting).
var weights = usm.Weights{Cr: 0.2, Cfm: 0.8, Cfs: 0.2}

const numItems = 1024

// doomedEvery makes one query in sixteen hopeless (see load.Op.Doomed) on
// the workloads where nothing else is ever refused, so a refusal is timed
// there too, with more than ten samples beyond p50 in each tenth of the
// slower one's run. overload-open has refusals of its own and gets none:
// the LBC reads doomed queries as rejections and loosens admission for
// good, which under overload moved the operating point and tripled the
// run-to-run spread of goodput and USM.
const doomedEvery = 16

var liveSpecs = []liveSpec{
	{
		name: "http-closed", workers: 4, overHTTP: true, closed: true, updateEvery: 16,
		mix: load.Mix{NumItems: numItems, ItemsPerQuery: 1, Skew: 1.4, Work: 0, Deadline: time.Second, Freshness: 0.9, DoomedEvery: doomedEvery},
	},
	{
		// 350/s is about half of what 8 workers sustain at 8 ms a query
		// (sleep(2ms) returns after about 2.26 ms on this host).
		name: "scatter-steady", shards: 4, workers: 8, rate: 350, feedRate: 1000,
		mix: load.Mix{NumItems: numItems, ItemsPerQuery: 4, Skew: 0.8, Work: 8 * time.Millisecond, Deadline: 200 * time.Millisecond, Freshness: 0.9, DoomedEvery: doomedEvery},
	},
	{
		// 2700/s is about 150% of the pool's real capacity, 4 / 2.26 ms.
		name: "overload-open", workers: 4, rate: 2700, feedRate: 500,
		mix: load.Mix{NumItems: numItems, ItemsPerQuery: 1, Skew: 1.4, Work: 2 * time.Millisecond, Deadline: 500 * time.Millisecond, Freshness: 0.9},
	},
}

// backend is the surface of the system under test that the benchmark
// drives; *server.Server and *server.Sharded both provide it.
type backend interface {
	QueryCtx(ctx context.Context, req server.QueryRequest) server.QueryResponse
	Update(req server.UpdateRequest) (bool, error)
	Stats() server.Stats
	Handler() http.Handler
	Close()
}

// plan lays a run out on its timeline: an unmeasured warm-up, an optional
// untraced reference segment, and the measured segment. With traced set,
// spans are recorded during the measured segment, and the reference
// segment gives the untraced cost per operation on the same server for
// bench.span_overhead_ratio.
type plan struct {
	warm, ref, measured time.Duration
	traced              bool
	outDir              string // where a traced run flushes its spans
}

func (p plan) measuredFrom() time.Duration { return p.warm + p.ref }
func (p plan) total() time.Duration        { return p.warm + p.ref + p.measured }

// outcome codes of a record.
const (
	outSuccess = iota
	outRejected
	outDMF
	outDSF
	outInvalid // no valid outcome: the operation failed
)

var outcomeName = [...]string{"success", "rejected", "deadline-missed", "data-stale", "invalid"}

var outcomeCode = map[server.Outcome]uint8{
	server.OutcomeSuccess:  outSuccess,
	server.OutcomeRejected: outRejected,
	server.OutcomeDMF:      outDMF,
	server.OutcomeDSF:      outDSF,
}

// rec is what the benchmark keeps of one operation.
type rec struct {
	at         time.Duration // place on the timeline: due time (open loop) or call start (closed loop)
	start, end time.Duration // the call itself
	late       time.Duration // open loop: how late the generator fired it
	update     bool
	outcome    uint8
	queued     bool // the response carried a stage breakdown
	fresh      float64
	work       time.Duration // the declared work of the slice whose stages came back
	srvLatency time.Duration // QueryResponse.Latency, the server's own stamp
	stageTotal float64       // seconds
	queueWait  float64
	exec       float64
	handler    time.Duration // traced HTTP: the wrapped handler's span
	touched    int           // shards the query's items live on
}

// conn is one closed-loop client's private path to the server.
type conn struct {
	api    *server.Client
	stamp  *stamper
	stream *load.Stream
	recs   []rec
}

// system is one constructed system under test with everything needed to
// tear it down again.
type system struct {
	spec liveSpec
	// start anchors every record's clock: set when the system is built, and
	// again, with nothing in flight, when the run proper begins.
	start  time.Time
	be     backend
	tracer *tracer
	ln     net.Listener
	hs     *http.Server
	served chan error
	conns  []*conn

	queries []load.Op // open loop
	feed    []load.Op

	// burst holds the set-up burst's queries, which the server's cumulative
	// accounting includes.
	burst []rec
}

// burstOps sizes the set-up burst: enough zero-work operations through the
// real path (every burstUpdateEvery-th an update) to open the connections
// and fault in the pools, fixed in count so set-up time measures work, not
// a timer.
const (
	burstOps         = 1000
	burstUpdateEvery = 5
)

// setUp builds the system, generates its schedules, and pushes the set-up
// burst through it. Everything it does is charged to setup_s.
func setUp(spec liveSpec, seed uint64, p plan) (*system, error) {
	cfg := server.DefaultConfig()
	cfg.NumItems = numItems
	cfg.Weights = weights
	cfg.Workers = spec.workers
	cfg.Seed = seed
	sys := &system{spec: spec, start: time.Now()}
	var err error
	if spec.shards > 0 {
		sys.be, err = server.NewSharded(cfg, spec.shards)
	} else {
		sys.be, err = server.New(cfg)
	}
	if err != nil {
		return nil, err
	}
	if p.traced {
		sys.tracer = newTracer()
	}
	clients := 1
	if spec.closed {
		clients = runtime.GOMAXPROCS(0)
	}
	if spec.overHTTP {
		sys.ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			sys.be.Close()
			return nil, err
		}
		h := sys.be.Handler()
		if sys.tracer != nil {
			h = sys.tracer.wrap(h, sys)
		}
		sys.hs = &http.Server{Handler: h}
		sys.served = make(chan error, 1)
		go func() { sys.served <- sys.hs.Serve(sys.ln) }()
	}
	for c := 0; c < clients; c++ {
		cn := &conn{stream: load.NewStream(spec.mix, spec.updateEvery, seed, c)}
		if spec.overHTTP {
			// One keep-alive connection per client: never more than nproc.
			cn.stamp = &stamper{base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			cn.api = server.NewClient("http://"+sys.ln.Addr().String(), &http.Client{Transport: cn.stamp})
		}
		sys.conns = append(sys.conns, cn)
	}
	if !spec.closed {
		sys.queries = load.OpenLoop(spec.mix, spec.rate, p.total(), seed)
		sys.feed = load.Feed(numItems, spec.feedRate, p.total(), seed)
	}

	quiet := spec.mix
	quiet.Work, quiet.DoomedEvery = 0, 0
	burst := load.NewStream(quiet, burstUpdateEvery, seed, clients)
	res := newResult(spec.name)
	for i := 0; i < burstOps; i++ {
		op := burst.Next()
		if r := sys.exec(&op, 0, 0, sys.conns[0], false, res); !op.Update {
			sys.burst = append(sys.burst, r)
		}
	}
	if !res.correct() {
		sys.close()
		return nil, fmt.Errorf("set-up burst: %s", res.problems[0])
	}
	return sys, nil
}

// close tears the system down and waits for its goroutines.
func (sys *system) close() {
	for _, cn := range sys.conns {
		if cn.stamp != nil {
			cn.stamp.base.CloseIdleConnections()
		}
	}
	if sys.hs != nil {
		// Close returns once the listener is shut; Serve then returns
		// ErrServerClosed, which is the only thing waited for here.
		_ = sys.hs.Close()
		<-sys.served
	}
	sys.be.Close()
}

// exec performs one operation through the workload's path, validates what
// came back, and returns its record. at is the operation's place on the
// timeline and late how far behind schedule it was fired.
func (sys *system) exec(op *load.Op, at, late time.Duration, cn *conn, traced bool, res *result) rec {
	r := rec{at: at, late: late, update: op.Update, work: op.Work}
	if op.Update {
		req := server.UpdateRequest{Item: op.Items[0], Value: op.Value}
		var err error
		r.start = time.Since(sys.start)
		if sys.spec.overHTTP {
			_, err = cn.api.Update(req)
		} else {
			_, err = sys.be.Update(req)
		}
		r.end = time.Since(sys.start)
		if err != nil {
			r.outcome = outInvalid
			res.problemf("update of item %d: %v", req.Item, err)
		}
		return r
	}

	req := server.QueryRequest{Items: op.Items, Deadline: op.Deadline, Work: op.Work, Freshness: op.Freshness}
	var (
		resp server.QueryResponse
		err  error
		id   uint64
	)
	if traced {
		id = sys.tracer.begin(cn.stamp)
	}
	r.start = time.Since(sys.start)
	if sys.spec.overHTTP {
		resp, err = cn.api.Query(req)
	} else {
		resp = sys.be.QueryCtx(context.Background(), req)
	}
	r.end = time.Since(sys.start)

	r.fresh = resp.Freshness
	r.srvLatency = resp.Latency
	if resp.Stages != nil {
		r.queued = true
		r.stageTotal, r.queueWait, r.exec = resp.Stages.Total, resp.Stages.QueueWait, resp.Stages.Exec
	}
	if sys.spec.shards > 0 {
		// The front door returns the slowest slice's stages, and each slice
		// carries its share of the work: hold Exec against the largest share.
		largest := 0
		for _, grp := range engine.PartitionItems(op.Items, sys.spec.shards) {
			if len(grp) > 0 {
				r.touched++
			}
			largest = max(largest, len(grp))
		}
		r.work = op.Work * time.Duration(largest) / time.Duration(len(op.Items))
	}
	r.outcome = outInvalid
	if why := validate(op, resp, err, r.end-r.start); why != "" {
		res.problemf("query %v: %s", op.Items, why)
	} else {
		r.outcome = outcomeCode[resp.Outcome]
	}
	if traced {
		r.handler = sys.tracer.finish(id, cn.stamp, sys.spec.name, &r, resp.Query)
	}
	return r
}

// validate checks one query response against what was asked; it returns
// the broken rule, or "" when the response is a valid outcome.
func validate(op *load.Op, resp server.QueryResponse, err error, call time.Duration) string {
	if err != nil {
		return "transport: " + err.Error()
	}
	code, known := outcomeCode[resp.Outcome]
	if !known {
		return fmt.Sprintf("outcome %q is not one of the four", resp.Outcome)
	}
	if op.Doomed && code != outRejected {
		return fmt.Sprintf("deadline %v below work %v, yet outcome %s", op.Deadline, op.Work, resp.Outcome)
	}
	switch code {
	case outSuccess, outDSF:
		if len(resp.Values) != len(op.Items) {
			return fmt.Sprintf("%s carries %d values for %d items", resp.Outcome, len(resp.Values), len(op.Items))
		}
		for _, it := range op.Items {
			if _, ok := resp.Values[strconv.Itoa(it)]; !ok {
				return fmt.Sprintf("%s lacks item %d", resp.Outcome, it)
			}
		}
		if code == outSuccess && resp.Freshness < op.Freshness {
			return fmt.Sprintf("success with freshness %v below the required %v", resp.Freshness, op.Freshness)
		}
		if code == outDSF && resp.Freshness >= op.Freshness {
			return fmt.Sprintf("data-stale with freshness %v at or above the required %v", resp.Freshness, op.Freshness)
		}
	default:
		if len(resp.Values) != 0 {
			return fmt.Sprintf("%s carries values", resp.Outcome)
		}
	}
	if resp.Latency > call {
		return fmt.Sprintf("server latency %v exceeds the call's %v", resp.Latency, call)
	}
	if st := resp.Stages; st != nil {
		if d := st.Sum() - st.Total; d > 1e-12 || d < -1e-12 {
			return fmt.Sprintf("stages sum %v != total %v", st.Sum(), st.Total)
		}
		if st.Total > resp.Latency.Seconds()+1e-6 {
			return fmt.Sprintf("stage total %vs exceeds latency %v", st.Total, resp.Latency)
		}
	}
	return ""
}

// boundary is a usage and Stats snapshot at one edge of the plan.
type boundary struct {
	usage usage
	stats server.Stats
}

// liveRun is the raw material of one run.
type liveRun struct {
	spec    liveSpec
	plan    plan
	setup   []float64 // seconds, one per timed set-up
	queries []rec
	updates []rec
	bounds  [4]boundary // at 0, warm, warm+ref, total
	final   server.Stats
	burst   []rec
	// queueLen samples Stats().QueueLength through the measured segment of a
	// traced run.
	queueLen []float64
	flush    time.Duration // traced: time to write the spans out
	spans    int
	arenas   []*recArena
}

// closedLoopRate sizes a closed-loop client's record arena, in operations
// per second; it is four times what one connection sustains on this host.
const closedLoopRate = 40000

// records maps room for n records outside the heap (see recArena).
func (run *liveRun) records(n int) ([]rec, error) {
	arena, recs, err := newRecArena(n)
	if err != nil {
		return nil, err
	}
	run.arenas = append(run.arenas, arena)
	return recs, nil
}

// free releases the run's records.
func (run *liveRun) free() {
	for _, a := range run.arenas {
		// Munmap fails only on a range that was never mapped.
		_ = a.free()
	}
	run.arenas, run.queries, run.updates = nil, nil, nil
}

// setupRepeats is how many times the system is set up and timed in one
// run; setup_s is the median, and the last system built is the one
// measured. One untimed set-up goes first: a process's first hundred
// milliseconds (runtime start, first connections, cold caches) run up to
// twice as slow as its next, which put the median on a slope.
const setupRepeats = 5

// runLive sets the workload up, drives it through the plan, tears it down
// and returns the records. Invariant violations go to res.
func runLive(spec liveSpec, seed uint64, p plan, res *result) (*liveRun, error) {
	run := &liveRun{spec: spec, plan: p}
	var sys *system
	for i := 0; i <= setupRepeats; i++ {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		var err error
		if sys, err = setUp(spec, seed, p); err != nil {
			return nil, err
		}
		if i > 0 {
			run.setup = append(run.setup, time.Since(t0).Seconds())
		}
	}
	defer sys.close()
	run.burst = sys.burst
	var err error
	if spec.closed {
		for _, cn := range sys.conns {
			if cn.recs, err = run.records(int(p.total().Seconds()*closedLoopRate) + 1); err != nil {
				return nil, err
			}
		}
	} else {
		if run.queries, err = run.records(len(sys.queries)); err != nil {
			return nil, err
		}
		if run.updates, err = run.records(len(sys.feed)); err != nil {
			return nil, err
		}
		run.queries, run.updates = run.queries[:len(sys.queries)], run.updates[:len(sys.feed)]
	}

	edges := [4]time.Duration{0, p.warm, p.measuredFrom(), p.total()}
	sys.start = time.Now()
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		for i, edge := range edges {
			time.Sleep(edge - time.Since(sys.start))
			run.bounds[i] = boundary{usage: readUsage(), stats: sys.be.Stats()}
			if p.traced && i == 2 {
				for time.Since(sys.start) < edges[3]-queueSampleEvery {
					time.Sleep(queueSampleEvery)
					run.queueLen = append(run.queueLen, float64(sys.be.Stats().QueueLength))
				}
			}
		}
	}()

	if spec.closed {
		var wg sync.WaitGroup
		for _, cn := range sys.conns {
			wg.Add(1)
			go func(cn *conn) {
				defer wg.Done()
				for {
					at := time.Since(sys.start)
					if at >= p.total() {
						return
					}
					op := cn.stream.Next()
					cn.recs = append(cn.recs, sys.exec(&op, at, 0, cn, p.traced && at >= p.measuredFrom(), res))
				}
			}(cn)
		}
		wg.Wait()
		for _, cn := range sys.conns {
			for _, r := range cn.recs {
				if r.update {
					run.updates = append(run.updates, r)
				} else {
					run.queries = append(run.queries, r)
				}
			}
		}
	} else {
		var pacers, inflight sync.WaitGroup
		pacers.Add(2)
		inflight.Add(len(sys.queries))
		go func() {
			defer pacers.Done()
			load.Pace(sys.start, sys.queries, func(i int, late time.Duration) {
				go func() {
					defer inflight.Done()
					op := &sys.queries[i]
					run.queries[i] = sys.exec(op, op.Due, late, sys.conns[0], p.traced && op.Due >= p.measuredFrom(), res)
				}()
			})
		}()
		go func() {
			defer pacers.Done()
			load.Pace(sys.start, sys.feed, func(i int, late time.Duration) {
				op := &sys.feed[i]
				run.updates[i] = sys.exec(op, op.Due, late, sys.conns[0], false, res)
			})
		}()
		pacers.Wait()
		inflight.Wait()
	}
	bg.Wait()
	run.final = sys.be.Stats()
	if sys.tracer != nil {
		t0 := time.Now()
		n, err := sys.tracer.flush(p.outDir, spec.name, seed)
		if err != nil {
			return nil, err
		}
		run.flush, run.spans = time.Since(t0), n
	}
	return run, nil
}

// queueSampleEvery spaces the queue-length samples of a traced run.
const queueSampleEvery = 20 * time.Millisecond

// tallyOutcome adds one outcome code to the benchmark's own tally; an
// invalid outcome is counted by the caller, not here.
func tallyOutcome(c *usm.Counts, code uint8) {
	switch code {
	case outSuccess:
		c.Success++
	case outRejected:
		c.Rejected++
	case outDMF:
		c.DMF++
	case outDSF:
		c.DSF++
	}
}

func tallyOf(recs []rec) (c usm.Counts, invalid int) {
	for _, r := range recs {
		if r.outcome == outInvalid {
			invalid++
		}
		tallyOutcome(&c, r.outcome)
	}
	return c, invalid
}

// ownUSM is Eq. 5 from the benchmark's own tally, written out rather than
// borrowed from the package it checks.
func ownUSM(c usm.Counts, w usm.Weights) float64 {
	n := c.Success + c.Rejected + c.DMF + c.DSF
	if n == 0 {
		return 0
	}
	gain := float64(c.Success)
	cost := w.Cr*float64(c.Rejected) + w.Cfm*float64(c.DMF) + w.Cfs*float64(c.DSF)
	return (gain - cost) / float64(n)
}

// usmShare places Eq. 5 on its own range: USM lies in [−C_max, 1], C_max
// the largest penalty, and the share (USM + C_max) / (1 + C_max) lies in
// [0, 1]. The driver's bounds are shares of a metric's median, which means
// nothing for a value that overload brings near 0 and a bad change could
// push below it; the share keeps the issue's absolute tolerance meaningful
// (0.01 of USM is 0.0056 of share at these weights).
func usmShare(eq5 float64, w usm.Weights) float64 {
	return (eq5 + w.MaxPenalty()) / (1 + w.MaxPenalty())
}

// checkAccounting holds the server's books against the benchmark's:
// every query sent has exactly one outcome, the tally equals
// Stats().Counts, and Eq. 5 recomputed from the counts equals Stats().USM.
func (run *liveRun) checkAccounting(res *result) {
	tally, invalid := tallyOf(append(run.burst, run.queries...))
	sent := len(run.queries) + len(run.burst)
	if tally.Total()+invalid != sent {
		res.problemf("conservation: %d queries sent, %d outcomes", sent, tally.Total()+invalid)
	}
	if invalid == 0 && tally != run.final.Counts {
		res.problemf("tally %+v != Stats().Counts %+v", tally, run.final.Counts)
	}
	if d := ownUSM(run.final.Counts, weights) - run.final.USM; d > 1e-9 || d < -1e-9 {
		res.problemf("Eq. 5 from counts %v != Stats().USM %v", ownUSM(run.final.Counts, weights), run.final.USM)
	}
	if run.final.QueriesCanceled != 0 || run.final.QueriesPanicked != 0 || run.final.QueriesDrained != 0 {
		res.problemf("server reports canceled=%d panicked=%d drained=%d; the benchmark causes none",
			run.final.QueriesCanceled, run.final.QueriesPanicked, run.final.QueriesDrained)
	}
}

// window returns the records placed in [from, to).
func window(recs []rec, from, to time.Duration) []rec {
	var out []rec
	for _, r := range recs {
		if r.at >= from && r.at < to {
			out = append(out, r)
		}
	}
	return out
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// pick collects one sample per record that keep accepts.
func pick(recs []rec, keep func(*rec) (float64, bool)) []sample {
	out := make([]sample, 0, len(recs))
	for i := range recs {
		if v, ok := keep(&recs[i]); ok {
			out = append(out, sample{at: recs[i].at, v: v})
		}
	}
	return out
}

// quantileNote states a percentile's sample count, as the guide asks.
func quantileNote(n, beyond int) string {
	note := fmt.Sprintf("n=%d, median of %d segments, >=%d beyond per segment", n, segments, beyond)
	if beyond < 10 {
		note += " (FEWER THAN 10)"
	}
	return note
}

// endToEndMetrics computes the user-visible metrics over the measured
// segment.
func (run *liveRun) endToEndMetrics(res *result) {
	from, to := run.plan.measuredFrom(), run.plan.total()
	qs := window(run.queries, from, to)
	us := window(run.updates, from, to)
	span := run.bounds[3].usage.since(run.bounds[2].usage)
	secs := span.wall.Seconds()

	tally, invalid := tallyOf(qs)
	res.attempted = len(qs) + len(us)
	res.failed = invalid
	for _, u := range us {
		if u.outcome == outInvalid {
			res.failed++
		}
	}
	if len(qs) == 0 || len(us) == 0 || secs <= 0 {
		res.problemf("measured segment holds %d queries and %d updates", len(qs), len(us))
		return
	}

	// Set-up is everything before measuring begins: building the system
	// (median of the timed repeats) and the unmeasured lead-in traffic.
	leadIn := run.bounds[1].usage.at.Sub(run.bounds[0].usage.at).Seconds()
	res.set("setup_s", median(run.setup)+leadIn, fmt.Sprintf("median of %d set-ups %.4f s + lead-in traffic %.4f s", len(run.setup), median(run.setup), leadIn))
	res.set("throughput_rps", float64(tally.Total())/secs, "")
	res.set("goodput_rps", float64(tally.Success)/secs, "")
	res.set("success_ratio", float64(tally.Success)/float64(len(qs)), "")
	res.set("usm", usmShare(ownUSM(tally, weights), weights), fmt.Sprintf("Eq. 5 = %.4f on [%.1f, 1]; tally %+v", ownUSM(tally, weights), -weights.MaxPenalty(), tally))

	lat := pick(qs, func(r *rec) (float64, bool) { return millis(r.end - r.at), r.outcome == outSuccess })
	for _, q := range []struct {
		name string
		q    float64
	}{{"latency_p50_ms", 0.5}, {"latency_p90_ms", 0.9}} {
		v, n, beyond := segmentMedian(lat, from, to, q.q)
		res.set(q.name, v, quantileNote(n, beyond))
	}
	rej := pick(qs, func(r *rec) (float64, bool) { return micros(r.end - r.start), r.outcome == outRejected })
	v, n, beyond := segmentMedian(rej, from, to, 0.5)
	res.set("reject_p50_us", v, quantileNote(n, beyond))

	var fresh []float64
	for _, r := range qs {
		if r.outcome == outSuccess || r.outcome == outDSF {
			fresh = append(fresh, r.fresh)
		}
	}
	res.set("freshness_mean", stats.Mean(fresh), fmt.Sprintf("n=%d", len(fresh)))

	upd := pick(us, func(r *rec) (float64, bool) { return micros(r.end - r.start), r.outcome != outInvalid })
	v, n, beyond = segmentMedian(upd, from, to, 0.5)
	res.set("update_p50_us", v, quantileNote(n, beyond))

	res.set("cpu_us_per_op", span.cpuMicrosPerOp(len(qs)), "per query sent; the feed's and the harness's CPU are inside")
	res.set("allocs_per_op", span.allocsPerOp(len(qs)), "per query sent")
	res.set("events_per_s", float64(tally.Total()+len(us))/secs, "queries answered + updates sent")
	// The last outcome can land after the segment's edge when a request is
	// still queued there.
	last := to
	for _, r := range qs {
		if r.end > last {
			last = r.end
		}
	}
	res.set("grid_wall_s", (last - from).Seconds(), "first due to last outcome")
}

func liveSpecByName(name string) (liveSpec, bool) {
	for _, s := range liveSpecs {
		if s.name == name {
			return s, true
		}
	}
	return liveSpec{}, false
}
