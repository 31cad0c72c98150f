// Package unitlint is the multichecker driving UNIT's six invariant
// analyzers. Three are syntactic: detclock (no wall clock in the
// simulator core), seededrand (no global math/rand anywhere), and
// usmrange (literal freshness and penalty weights stay in the paper's
// domains). Three are flow-sensitive, built on internal/lint/cfg and
// internal/lint/dataflow: locksafe (every mutex acquired is released on
// all paths, no double lock/unlock), guardedflow ('// guarded by mu'
// field accesses happen where the mutex is provably held), and
// outcomeonce (every path records exactly one terminal transaction
// outcome). The driver also audits //unitlint:ignore comments (analyzer
// name "ignore"): scoped, reasoned ignores suppress; malformed ones are
// findings.
//
// cmd/unitlint is a thin main around Main; tests drive Run directly.
// Findings can stream as JSON lines (one object per finding) and be
// gated against a checked-in baseline: baselined findings are tolerated,
// new ones fail, stale baseline entries warn.
package unitlint

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"unitdb/internal/lint/analysis"
	"unitdb/internal/lint/detclock"
	"unitdb/internal/lint/guardedflow"
	"unitdb/internal/lint/loader"
	"unitdb/internal/lint/locksafe"
	"unitdb/internal/lint/outcomeonce"
	"unitdb/internal/lint/seededrand"
	"unitdb/internal/lint/usmrange"
)

// Analyzers is the full suite, in reporting order.
var Analyzers = []*analysis.Analyzer{
	detclock.Analyzer,
	seededrand.Analyzer,
	usmrange.Analyzer,
	locksafe.Analyzer,
	guardedflow.Analyzer,
	outcomeonce.Analyzer,
}

// Select returns the analyzers named in the comma-separated list, or the
// whole suite when the list is empty.
func Select(only string) ([]*analysis.Analyzer, error) {
	if strings.TrimSpace(only) == "" {
		return Analyzers, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range Analyzers {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unitlint: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run loads the packages matched by patterns under dir and applies the
// analyzers, returning the surviving (non-suppressed) diagnostics plus
// the ignore-comment audit, sorted by (file, line, analyzer, message)
// so output diffs cleanly run-to-run. Filenames are reported relative
// to dir so output and baselines are machine-independent.
func Run(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	diags, _, err := RunTimed(dir, patterns, analyzers)
	return diags, err
}

// RunTimed is Run plus per-analyzer wall time, summed across packages.
func RunTimed(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, map[string]time.Duration, error) {
	pkgs, err := loader.Load(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	known := map[string]bool{}
	for _, a := range Analyzers {
		known[a.Name] = true
	}
	timings := map[string]time.Duration{}
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			var out []analysis.Diagnostic
			pass := analysis.NewPass(a, pkg, &out)
			start := time.Now()
			runErr := a.Run(pass)
			timings[a.Name] += time.Since(start)
			if runErr != nil {
				return nil, nil, fmt.Errorf("unitlint: %s on %s: %w", a.Name, pkg.Path, runErr)
			}
			for _, d := range out {
				if !analysis.Suppressed(pkg, d) {
					diags = append(diags, d)
				}
			}
		}
		diags = append(diags, analysis.BadIgnores(pkg, known)...)
	}
	// Relativize after suppression: Suppressed matches the absolute
	// filenames the loader put in the file set.
	for i := range diags {
		if rel, err := filepath.Rel(dir, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Message != b.Message {
			return a.Message < b.Message
		}
		return a.Pos.Column < b.Pos.Column
	})
	return diags, timings, nil
}

// Finding is the JSON-line form of one diagnostic — both the -json
// output format and the baseline file format (`unitlint -json >
// lint.baseline` regenerates a baseline).
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func toFinding(d analysis.Diagnostic) Finding {
	return Finding{
		File:     d.Pos.Filename,
		Line:     d.Pos.Line,
		Col:      d.Pos.Column,
		Analyzer: d.Analyzer,
		Message:  d.Message,
	}
}

// baselineKey identifies a finding across unrelated edits: the file, the
// analyzer, and the message — but not the line, which shifts every time
// code above it moves.
func baselineKey(f Finding) string {
	return f.File + "\x00" + f.Analyzer + "\x00" + f.Message
}

// LoadBaseline reads a JSON-lines baseline into a multiset of finding
// keys. Blank lines and #-comments are skipped.
func LoadBaseline(path string) (map[string]int, error) {
	set := map[string]int{}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var fd Finding
		if err := json.Unmarshal([]byte(text), &fd); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		set[baselineKey(fd)]++
	}
	return set, sc.Err()
}

// Options configures a Main run beyond analyzer selection.
type Options struct {
	// JSON emits findings as JSON lines instead of position: text.
	JSON bool
	// Baseline names the baseline file: "" auto-loads dir/lint.baseline
	// when present, "-" disables baselining, anything else must exist.
	Baseline string
	// StrictBaseline fails the run (exit 1) when the baseline holds
	// stale entries, instead of only warning — CI uses it so a fixed
	// finding forces the baseline to be regenerated.
	StrictBaseline bool
	// Timings appends per-analyzer wall time to the output: a JSON line
	// {"timings_ms":{...}} in JSON mode, a readable table otherwise.
	Timings bool
}

// Main runs the suite for a command line: it prints diagnostics to w and
// returns the process exit code — 0 clean (baselined findings tolerated,
// stale baseline entries warn, or fail under StrictBaseline), 1 on new
// findings, 2 on usage/load errors.
func Main(w io.Writer, dir, only string, opts Options, patterns []string) int {
	analyzers, err := Select(only)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, timings, err := RunTimed(dir, patterns, analyzers)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}

	baseline := map[string]int{}
	switch opts.Baseline {
	case "-":
	case "":
		auto := filepath.Join(dir, "lint.baseline")
		if _, statErr := os.Stat(auto); statErr == nil {
			if baseline, err = LoadBaseline(auto); err != nil {
				fmt.Fprintln(w, err)
				return 2
			}
		}
	default:
		if baseline, err = LoadBaseline(opts.Baseline); err != nil {
			fmt.Fprintln(w, err)
			return 2
		}
	}

	var fresh []analysis.Diagnostic
	for _, d := range diags {
		key := baselineKey(toFinding(d))
		if baseline[key] > 0 {
			baseline[key]--
			continue
		}
		fresh = append(fresh, d)
	}

	enc := json.NewEncoder(w)
	for _, d := range fresh {
		if opts.JSON {
			if err := enc.Encode(toFinding(d)); err != nil {
				fmt.Fprintln(w, err)
				return 2
			}
			continue
		}
		fmt.Fprintln(w, d)
	}
	var stale int
	for _, key := range sortedKeys(baseline) {
		n := baseline[key]
		if n <= 0 {
			continue
		}
		stale += n
		parts := strings.SplitN(key, "\x00", 3)
		fmt.Fprintf(w, "unitlint: stale baseline entry (%d): %s: %s: %s\n", n, parts[0], parts[1], parts[2])
	}
	if stale > 0 {
		fmt.Fprintf(w, "unitlint: %d stale baseline entr(ies); regenerate with `make lint-baseline`\n", stale)
	}
	if opts.Timings {
		if err := writeTimings(w, opts.JSON, analyzers, timings); err != nil {
			fmt.Fprintln(w, err)
			return 2
		}
	}
	if len(fresh) > 0 {
		if !opts.JSON {
			fmt.Fprintf(w, "unitlint: %d finding(s)\n", len(fresh))
		}
		return 1
	}
	if stale > 0 && opts.StrictBaseline {
		return 1
	}
	return 0
}

// writeTimings emits per-analyzer wall time: one {"timings_ms":{...}}
// JSON line (milliseconds, 3 decimals) or a readable table.
func writeTimings(w io.Writer, jsonOut bool, analyzers []*analysis.Analyzer, timings map[string]time.Duration) error {
	if jsonOut {
		ms := make(map[string]float64, len(timings))
		for name, d := range timings {
			ms[name] = math.Round(float64(d.Microseconds())/1000*1000) / 1000
		}
		return json.NewEncoder(w).Encode(map[string]map[string]float64{"timings_ms": ms})
	}
	for _, a := range analyzers {
		fmt.Fprintf(w, "unitlint: timing: %-12s %s\n", a.Name, timings[a.Name].Round(time.Microsecond))
	}
	return nil
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
