package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// workloadDecl names a workload and records why it was chosen.
type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDecl declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none.
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// workloads, endToEnd and perLayer mirror BENCHMARK.json; bench_test.go
// holds the two together.
var workloads = []workloadDecl{
	{"http-closed", "Zero-work queries over real loopback HTTP in a closed loop: the whole trip is overhead and HTTP decode/encode is about nine tenths of it. No other workload crosses the HTTP layer."},
	{"scatter-steady", "Normal operating point with writes beside reads: 4-item queries scatter over 4 shards at half capacity next to a 1000/s update feed. A read-path gain that costs the write path shows here."},
	{"overload-open", "The regime UNIT exists for: 150% offered load on one server, queue about 1000 deep, so admission's O(queue) sweep, the trace records under the lock, the LBC and UFM do the work."},
	{"sim-fig4", "The paper's Fig. 4 at full scale on the uniform traces, four policies: engine, eventsim, readyq, lockmgr and lottery do all the work here and none in the live workloads."},
}

// The bounds come from the spread measured on this host (ten seeds a
// workload, five rounds), not from a wish: the driver refuses a benchmark
// whose own interquartile range over median exceeds a bound. Anything
// bound to the speed of memory-heavy code (rates, call times, CPU per
// operation, the simulator's wall time) moved by up to 30% between runs
// minutes apart, so those carry the widest bound the driver accepts. See
// README.md, "The noise floor".
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"goodput_rps", "1/s", "higher", 0.25},
	{"success_ratio", "ratio", "higher", 0.15},
	{"usm", "ratio", "higher", 0.10},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"reject_p50_us", "us", "lower", 0.25},
	{"freshness_mean", "ratio", "higher", 0.05},
	{"update_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.08},
	{"events_per_s", "1/s", "higher", 0.25},
	{"grid_wall_s", "s", "lower", 0.25},
}

// perLayer is every layer metric: what the traced run sees of the live
// path, then the layer probes.
var perLayer = append(append([]metricDecl(nil), tracedLayer...), probeLayer...)

var tracedLayer = []metricDecl{
	// Self times that partition the client span.
	{Name: "bench.client_span_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.client.transport_self_us", Unit: "us", Better: "lower"},
	{Name: "server.http.handler_self_us", Unit: "us", Better: "lower"},
	{Name: "server.admit_self_us", Unit: "us", Better: "lower"},
	{Name: "server.shard.gather_self_us", Unit: "us", Better: "lower"},
	{Name: "server.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.queue_wait_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "server.exec_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.reconcile_ratio", Unit: "ratio", Better: "higher"},
	// Diagnostics.
	{Name: "server.queue_len_mean", Unit: "count", Better: "lower"},
	{Name: "server.exec_overrun_us", Unit: "us", Better: "lower"},
	{Name: "server.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.update_call_p99_us", Unit: "us", Better: "lower"},
	{Name: "server.shed", Unit: "count", Better: "lower"},
	{Name: "server.canceled", Unit: "count", Better: "lower"},
	{Name: "server.shard.touched_mean", Unit: "count", Better: "lower"},
	{Name: "server.shard.imbalance", Unit: "ratio", Better: "lower"},
	{Name: "server.shard.wasted_slice_ratio", Unit: "ratio", Better: "lower"},
	// Stats deltas of the algorithm core.
	{Name: "core.admission.cflex_final", Unit: "ratio", Better: "lower"},
	{Name: "core.admission.reject_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.control.decisions", Unit: "count", Better: "higher"},
	{Name: "core.control.loosen", Unit: "count", Better: "lower"},
	{Name: "core.control.tighten", Unit: "count", Better: "lower"},
	{Name: "core.control.degrade", Unit: "count", Better: "lower"},
	{Name: "core.control.upgrade", Unit: "count", Better: "lower"},
	{Name: "core.ufm.degraded_items_final", Unit: "count", Better: "lower"},
	{Name: "core.ufm.update_drop_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.usm.dmf_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.usm.dsf_ratio", Unit: "ratio", Better: "lower"},
	{Name: "datastore.stale_items_final", Unit: "count", Better: "lower"},
	// The harness itself.
	{Name: "bench.gen_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.gen_late_max_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.cpu_util", Unit: "ratio", Better: "lower"},
	{Name: "bench.span_overhead_ratio", Unit: "ratio", Better: "lower"},
}

var probeLayer = []metricDecl{
	// Live path.
	{Name: "core.admission.admit_ns.q16", Unit: "ns", Better: "lower"},
	{Name: "core.admission.admit_ns.q256", Unit: "ns", Better: "lower"},
	{Name: "core.admission.admit_ns.q1024", Unit: "ns", Better: "lower"},
	{Name: "core.control.decide_ns", Unit: "ns", Better: "lower"},
	{Name: "core.ufm.on_query_access_ns", Unit: "ns", Better: "lower"},
	{Name: "core.ufm.on_update_ns", Unit: "ns", Better: "lower"},
	{Name: "core.ufm.degrade_n_us", Unit: "us", Better: "lower"},
	{Name: "core.usm.record_ns", Unit: "ns", Better: "lower"},
	{Name: "datastore.apply_update_ns", Unit: "ns", Better: "lower"},
	{Name: "datastore.query_freshness_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.trace.record_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.metrics.observe_ex_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.metrics.counter_inc_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.promtext.write_us", Unit: "us", Better: "lower"},
	{Name: "server.query_direct_ns", Unit: "ns", Better: "lower"},
	{Name: "server.http.serve_ns", Unit: "ns", Better: "lower"},
	{Name: "server.shard.query_4item_ns", Unit: "ns", Better: "lower"},
	// Simulator.
	{Name: "readyq.push_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "eventsim.schedule_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "lockmgr.acquire_release_ns", Unit: "ns", Better: "lower"},
	{Name: "lockmgr.abort_ns", Unit: "ns", Better: "lower"},
	{Name: "lottery.sample_ns", Unit: "ns", Better: "lower"},
	{Name: "lottery.update_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.cell_wall_s.IMU", Unit: "s", Better: "lower"},
	{Name: "engine.cell_wall_s.ODU", Unit: "s", Better: "lower"},
	{Name: "engine.cell_wall_s.QMF", Unit: "s", Better: "lower"},
	{Name: "engine.cell_wall_s.UNIT", Unit: "s", Better: "lower"},
	{Name: "engine.construct_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.preemptions", Unit: "count", Better: "lower"},
	{Name: "engine.restarts", Unit: "count", Better: "lower"},
	{Name: "lockmgr.hp_aborts", Unit: "count", Better: "lower"},
	{Name: "engine.traced_ratio", Unit: "ratio", Better: "lower"},
	{Name: "engine.sharded4_speedup", Unit: "ratio", Better: "higher"},
	{Name: "baseline.qmf_share", Unit: "ratio", Better: "lower"},
	{Name: "workload.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.unattributed_ratio", Unit: "ratio", Better: "lower"},
}

// values holds measured metrics by name.
type values map[string]float64

// result is what one run of one workload produced.
type result struct {
	workload  string
	attempted int
	failed    int
	// problems lists broken invariants; a run is correct when it is empty.
	// Operations in flight report concurrently, so mu guards it.
	mu       sync.Mutex
	problems []string
	metrics  values
	// notes are per-metric remarks (sample counts, flags) for the human
	// report; they do not reach the JSON line.
	notes map[string]string
}

func newResult(workload string) *result {
	return &result{workload: workload, metrics: values{}, notes: map[string]string{}}
}

// maxProblems caps the invariant violations kept for the report; the count
// of failed operations stays exact.
const maxProblems = 12

func (r *result) problemf(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return len(r.problems) == 0 }

// set records a metric, with an optional note for the report.
func (r *result) set(name string, v float64, note string) {
	r.metrics[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

// report prints every declared metric by name and unit, then the problems.
func (r *result) report(w io.Writer, decls []metricDecl) {
	for _, d := range decls {
		v, ok := r.metrics[d.Name]
		if !ok {
			fmt.Fprintf(w, "%-16s %-36s MISSING\n", r.workload, d.Name)
			continue
		}
		line := fmt.Sprintf("%-16s %-36s %14.6g %-6s", r.workload, d.Name, v, d.Unit)
		if note := r.notes[d.Name]; note != "" {
			line += "  " + note
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	fmt.Fprintf(w, "%-16s ops_attempted=%d ops_failed=%d correct=%v\n", r.workload, r.attempted, r.failed, r.correct())
	for _, p := range r.problems {
		fmt.Fprintf(w, "%-16s PROBLEM: %s\n", r.workload, p)
	}
}

// jsonLine renders the result as the driver's one-line JSON object: every
// declared metric with all its digits. It refuses a result that lacks a
// declared metric or holds an undeclared one, so the declarations and the
// program cannot drift apart unnoticed.
func (r *result) jsonLine(decls []metricDecl) (string, error) {
	type metric struct {
		Value json.Number `json:"value"`
		Unit  string      `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range decls {
		v, ok := r.metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured on %s", d.Name, r.workload)
		}
		out.Metrics[d.Name] = metric{Value: json.Number(strconv.FormatFloat(v, 'g', -1, 64)), Unit: d.Unit}
	}
	for name := range r.metrics {
		if _, ok := out.Metrics[name]; !ok {
			return "", fmt.Errorf("metric %s was measured on %s but is not declared", name, r.workload)
		}
	}
	b, err := json.Marshal(out)
	return string(b), err
}
