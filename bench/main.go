// Command bench is the repository's benchmark: four workloads, the
// end-to-end metrics a user of the system would see, and a per-layer
// budget measured from outside the program. See README.md.
//
// The driver's form runs one workload once and ends with one JSON line:
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Without --workload it runs the whole suite, untraced then traced, and
// prints every metric by name and unit; -aa runs the untraced suite twice
// and holds the difference against each metric's bound; -smoke runs every
// workload for two seconds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	dir      string // the benchmark's own directory, for expected.json and out/
	quick    bool   // -smoke: reduced simulator trace, no pinned outputs
}

func main() {
	var (
		o      options
		aa     = flag.Bool("aa", false, "run the untraced suite twice and fail where two runs of the same code differ by more than a metric's bound")
		smoke  = flag.Bool("smoke", false, "run every workload for 2 s, untraced and traced, without bounds")
		record = flag.Bool("record-expected", false, "run the simulator grid once and record its outputs into expected.json")
	)
	flag.StringVar(&o.workload, "workload", "", "run this one workload and end with the driver's JSON line")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 25, "seconds one run measures")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and the layer probes")
	flag.StringVar(&o.dir, "dir", "bench", "the benchmark's directory (expected.json, out/)")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || o.trace < 0 || o.trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *smoke {
		o.seconds, o.quick = 2, true
	}
	var err error
	switch {
	case *record:
		err = recordExpected(o)
	case o.workload != "":
		err = single(o)
	case *aa:
		err = abTwice(o)
	default:
		err = suite(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("outputs incorrect")

// runOne runs one workload once, traced or not.
func runOne(o options) (*result, error) {
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.workload == simName {
		if o.trace == 1 {
			res := newResult(simName)
			res.attempted = 1
			for _, d := range tracedLayer {
				res.set(d.Name, 0, "the live path does no work on this workload")
			}
			return res, runProbes(o.quick, res)
		}
		return runSim(budget, o.quick, filepath.Join(o.dir, "expected.json"))
	}
	spec, ok := liveSpecByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	// Two seconds of unmeasured traffic lets the queue and the controller
	// reach their operating point; a smoke run has no time for that.
	p := plan{warm: 2 * time.Second, measured: budget, outDir: filepath.Join(o.dir, "out")}
	if p.warm > budget/4 {
		p.warm = budget / 4
	}
	if o.trace == 1 {
		// The traced run shares its seconds between an untraced reference
		// segment, the traced segment, and the probes.
		p.traced = true
		p.ref, p.measured = budget*16/100, budget*32/100
	}
	res := newResult(spec.name)
	run, err := runLive(spec, o.seed, p, res)
	if err != nil {
		return nil, err
	}
	defer run.free()
	run.checkAccounting(res)
	if o.trace == 0 {
		run.endToEndMetrics(res)
		return res, nil
	}
	traced := window(run.queries, p.measuredFrom(), p.total())
	_, res.failed = tallyOf(traced)
	res.attempted = len(traced)
	run.perLayerMetrics(res)
	return res, runProbes(o.quick, res)
}

func declsFor(trace int) []metricDecl {
	if trace == 1 {
		return perLayer
	}
	return endToEnd
}

// single is the driver's form: report, then the JSON line last.
func single(o options) error {
	res, err := runOne(o)
	if err != nil {
		return err
	}
	decls := declsFor(o.trace)
	res.report(os.Stdout, decls)
	line, err := res.jsonLine(decls)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if !res.correct() {
		return errIncorrect
	}
	return nil
}

// suite runs every workload untraced, then traced.
func suite(o options) error {
	bad := false
	for _, trace := range []int{0, 1} {
		for _, w := range workloads {
			o.workload, o.trace = w.Name, trace
			res, err := runOne(o)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			res.report(os.Stdout, declsFor(trace))
			bad = bad || !res.correct()
		}
	}
	if bad {
		return errIncorrect
	}
	return nil
}

// abTwice runs the untraced suite twice on the same code and prints each
// metric's difference beside its bound.
func abTwice(o options) error {
	excess := 0
	for _, w := range workloads {
		o.workload, o.trace = w.Name, 0
		var pair [2]*result
		for i := range pair {
			res, err := runOne(o)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			if !res.correct() {
				res.report(os.Stdout, endToEnd)
				return errIncorrect
			}
			pair[i] = res
		}
		for _, d := range endToEnd {
			a, b := pair[0].metrics[d.Name], pair[1].metrics[d.Name]
			diff := math.Abs(a-b) / math.Abs(a)
			verdict := "ok"
			if diff > d.Bound {
				verdict = "EXCEEDS"
				excess++
			}
			fmt.Printf("%-16s %-18s %14.6g %14.6g %-6s diff %6.2f%%  bound %5.1f%%  %s\n",
				w.Name, d.Name, a, b, d.Unit, 100*diff, 100*d.Bound, verdict)
		}
	}
	if excess > 0 {
		return fmt.Errorf("%d metrics differ between two runs of the same code by more than their bound", excess)
	}
	return nil
}

// recordExpected pins the simulator grid's outputs into expected.json.
func recordExpected(o options) error {
	cfg := simConfig(false)
	traces, err := simTraces(cfg)
	if err != nil {
		return err
	}
	res := newResult(simName)
	pinned := expectedFile{}
	for _, c := range gridCells(traces) {
		if err := c.run(cfg, res); err != nil {
			return err
		}
		pinned[c.name()] = expectedCell{USM: c.first.USM, Events: c.first.Events}
	}
	if !res.correct() {
		return fmt.Errorf("%s: %s", simName, res.problems[0])
	}
	b, err := json.MarshalIndent(pinned, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.dir, "expected.json"), append(b, '\n'), 0o644)
}
