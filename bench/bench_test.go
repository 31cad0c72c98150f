package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"unitdb/internal/core/usm"
)

func TestSegmentMedianDiscardsAStalledSegment(t *testing.T) {
	// Ten one-second segments of 100 samples each, values 1..100; a stall
	// multiplies segment 3 by 50.
	var samples []sample
	for seg := 0; seg < segments; seg++ {
		for i := 1; i <= 100; i++ {
			v := float64(i)
			if seg == 3 {
				v *= 50
			}
			at := time.Duration(seg)*time.Second + time.Duration(i)*time.Millisecond
			samples = append(samples, sample{at: at, v: v})
		}
	}
	// Outside the window: must be ignored.
	samples = append(samples, sample{at: -time.Second, v: 1e9}, sample{at: 10 * time.Second, v: 1e9})

	for _, c := range []struct {
		q      float64
		want   float64
		beyond int
	}{{0.5, 50, 50}, {0.9, 90, 10}, {0.99, 99, 1}} {
		got, n, beyond := segmentMedian(samples, 0, 10*time.Second, c.q)
		if got != c.want || n != 1000 || beyond != c.beyond {
			t.Errorf("q=%v: got %v over n=%d with %d beyond, want %v over 1000 with %d", c.q, got, n, beyond, c.want, c.beyond)
		}
	}
	if v, n, _ := segmentMedian(nil, 0, time.Second, 0.5); v != 0 || n != 0 {
		t.Errorf("no samples: got %v over %d", v, n)
	}
}

func TestSegmentMedianSkipsEmptySegments(t *testing.T) {
	samples := []sample{{at: 0, v: 7}, {at: 9 * time.Second, v: 9}}
	got, n, beyond := segmentMedian(samples, 0, 10*time.Second, 0.5)
	if got != 8 || n != 2 || beyond != 0 {
		t.Errorf("got %v over n=%d with %d beyond, want the two occupied segments' median 8", got, n, beyond)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	for q, want := range map[float64]float64{0: 10, 0.25: 10, 0.26: 20, 0.5: 20, 0.9: 40, 1: 40} {
		if got := percentile(sorted, q); got != want {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

var testSink [][]byte

func TestUsageDeltas(t *testing.T) {
	before := readUsage()
	const allocs = 5000
	for i := 0; i < allocs; i++ {
		testSink = append(testSink, make([]byte, 64))
	}
	spin := 0.0
	for t0 := time.Now(); time.Since(t0) < 30*time.Millisecond; {
		spin += 1
	}
	runtime.KeepAlive(spin)
	c := readUsage().since(before)
	testSink = nil

	if c.mallocs < allocs || c.mallocs > allocs*2 {
		t.Errorf("mallocs delta %d for %d allocations", c.mallocs, allocs)
	}
	if c.cpu < 15*time.Millisecond || c.cpu > 500*time.Millisecond {
		t.Errorf("cpu delta %v for a 30 ms spin", c.cpu)
	}
	if c.wall < 30*time.Millisecond {
		t.Errorf("wall delta %v below the spin", c.wall)
	}
	if got := c.allocsPerOp(allocs); got < 1 || got > 2 {
		t.Errorf("allocsPerOp = %v", got)
	}
	if got, want := c.cpuMicrosPerOp(10), float64(c.cpu.Microseconds())/10; got < want-1 || got > want+1 {
		t.Errorf("cpuMicrosPerOp = %v, want about %v", got, want)
	}
	if u := c.cpuUtil(); u <= 0 || u > 1.05 {
		t.Errorf("cpuUtil = %v", u)
	}
}

func TestOwnUSMIsEq5(t *testing.T) {
	c := usm.Counts{Success: 6, Rejected: 2, DMF: 1, DSF: 1}
	// (6 − 0.2·2 − 0.8·1 − 0.2·1) / 10
	if got, want := ownUSM(c, weights), 0.46; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("ownUSM = %v, want %v", got, want)
	}
	if got := ownUSM(c, weights) - c.USM(weights); got > 1e-12 || got < -1e-12 {
		t.Errorf("ownUSM differs from usm.Counts.USM by %v", got)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Workloads, workloads) {
		t.Errorf("workloads differ:\n json %+v\n code %+v", f.Workloads, workloads)
	}
	var e2e, layers []metricDecl
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricDecl{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range f.PerLayer {
		layers = append(layers, metricDecl{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", layers, perLayer)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" || f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", f.Paths, f.RunSeconds)
	}
	if got := strings.Join(f.Command, " "); got != "bash bench/run.sh" {
		t.Errorf("command %q", got)
	}
}

// TestEveryDeclaredMetricIsMeasured runs each workload briefly. A run fails
// on its own when a declared metric was not measured or a measured one is
// not declared (result.jsonLine), so a clean JSON line from every workload,
// untraced and traced, proves the declarations and the program agree.
func TestEveryDeclaredMetricIsMeasured(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			if trace == 1 && w.Name != "http-closed" && w.Name != simName {
				continue // the traced path is shared; one live and the simulator cover it
			}
			o := options{workload: w.Name, seed: 5, seconds: 0.3, trace: trace, dir: dir, quick: true}
			res, err := runOne(o)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			if !res.correct() {
				t.Errorf("%s trace=%d: %v", w.Name, trace, res.problems)
			}
			if res.attempted < 1 {
				t.Errorf("%s trace=%d: attempted %d", w.Name, trace, res.attempted)
			}
			line, err := res.jsonLine(declsFor(trace))
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			var parsed struct {
				Metrics map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &parsed); err != nil {
				t.Fatalf("%s trace=%d: JSON line does not parse: %v", w.Name, trace, err)
			}
			for _, d := range declsFor(trace) {
				m, ok := parsed.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s trace=%d: %s missing or malformed in the JSON line", w.Name, trace, d.Name)
				}
				if trace == 0 && ok && m.Value != nil && *m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
				}
			}
			if len(parsed.Metrics) != len(declsFor(trace)) {
				t.Errorf("%s trace=%d: %d metrics printed, %d declared", w.Name, trace, len(parsed.Metrics), len(declsFor(trace)))
			}
		}
	}
}

func TestUndeclaredMetricIsRefused(t *testing.T) {
	res := newResult("http-closed")
	for _, d := range endToEnd {
		res.set(d.Name, 1, "")
	}
	if _, err := res.jsonLine(endToEnd); err != nil {
		t.Fatalf("complete result refused: %v", err)
	}
	res.set("stray_metric", 1, "")
	if _, err := res.jsonLine(endToEnd); err == nil {
		t.Error("a measured but undeclared metric went unnoticed")
	}
	delete(res.metrics, "stray_metric")
	delete(res.metrics, "usm")
	if _, err := res.jsonLine(endToEnd); err == nil {
		t.Error("a declared but unmeasured metric went unnoticed")
	}
}
