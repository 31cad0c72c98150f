package unitlint_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unitdb/internal/lint/analysistest"
	"unitdb/internal/lint/unitlint"
)

// repoRoot walks up from the test's directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for d := wd; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		if filepath.Dir(d) == d {
			t.Fatalf("no go.mod above %s", wd)
		}
	}
}

// TestRepoIsClean is the invariant this whole tree exists for: the repo
// itself must pass its own suite. A regression anywhere (a stray
// time.Now in the engine, an unguarded server field) fails here before
// CI even reaches the unitlint step.
func TestRepoIsClean(t *testing.T) {
	root := repoRoot(t)
	diags, err := unitlint.Run(root, []string{"./..."}, unitlint.Analyzers)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("unitlint found %d issue(s) in the repo:\n%s",
			len(diags), analysistest.Fprint(diags))
	}
}

func TestSelect(t *testing.T) {
	all, err := unitlint.Select("")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, a := range all {
		names = append(names, a.Name)
	}
	want := "detclock seededrand usmrange locksafe guardedflow outcomeonce"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("Select(\"\") = %q; want the full suite in reporting order, %q", got, want)
	}
	two, err := unitlint.Select("locksafe, outcomeonce")
	if err != nil || len(two) != 2 || two[0].Name != "locksafe" || two[1].Name != "outcomeonce" {
		t.Fatalf("Select subset = %v, err %v", two, err)
	}
	if _, err := unitlint.Select("nosuch"); err == nil || !strings.Contains(err.Error(), "unknown analyzer") {
		t.Fatalf("Select(nosuch) err = %v, want unknown analyzer", err)
	}
}

// writeModule lays out a throwaway single-file module for driver tests.
func writeModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module scratch\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "scratch.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

const dirtySrc = `package scratch

import "math/rand"

func roll() int { return rand.Int() }
`

// TestMainJSONAndBaseline drives the command entry point end to end:
// text mode fails with a finding, a baseline generated from the JSON
// stream makes the same run pass, and deleting the violation turns the
// baseline entry into a stale warning (still exit 0).
func TestMainJSONAndBaseline(t *testing.T) {
	dir := writeModule(t, dirtySrc)

	var text strings.Builder
	if code := unitlint.Main(&text, dir, "seededrand", unitlint.Options{}, nil); code != 1 {
		t.Fatalf("dirty run exit = %d, want 1; output:\n%s", code, text.String())
	}
	if !strings.Contains(text.String(), "scratch.go") || !strings.Contains(text.String(), "seededrand") {
		t.Fatalf("text output missing finding: %s", text.String())
	}

	var jsonOut strings.Builder
	if code := unitlint.Main(&jsonOut, dir, "seededrand", unitlint.Options{JSON: true}, nil); code != 1 {
		t.Fatalf("json run exit = %d, want 1", code)
	}
	var f unitlint.Finding
	if err := json.Unmarshal([]byte(strings.SplitN(jsonOut.String(), "\n", 2)[0]), &f); err != nil {
		t.Fatalf("json output is not JSON lines: %v\n%s", err, jsonOut.String())
	}
	if f.File != "scratch.go" || f.Analyzer != "seededrand" || f.Line == 0 {
		t.Fatalf("finding = %+v", f)
	}

	// The JSON stream IS the baseline format: write it back and the same
	// findings are tolerated.
	baseline := filepath.Join(dir, "lint.baseline")
	if err := os.WriteFile(baseline, []byte(jsonOut.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var quiet strings.Builder
	if code := unitlint.Main(&quiet, dir, "seededrand", unitlint.Options{}, nil); code != 0 {
		t.Fatalf("baselined run exit = %d, want 0; output:\n%s", code, quiet.String())
	}

	// -baseline - ignores the file.
	var loud strings.Builder
	if code := unitlint.Main(&loud, dir, "seededrand", unitlint.Options{Baseline: "-"}, nil); code != 1 {
		t.Fatalf("baseline-disabled run exit = %d, want 1", code)
	}

	// Fix the violation: the baseline entry goes stale — warned, exit 0.
	if err := os.WriteFile(filepath.Join(dir, "scratch.go"),
		[]byte("package scratch\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stale strings.Builder
	if code := unitlint.Main(&stale, dir, "seededrand", unitlint.Options{}, nil); code != 0 {
		t.Fatalf("stale-baseline run exit = %d, want 0; output:\n%s", code, stale.String())
	}
	if !strings.Contains(stale.String(), "stale baseline entry") {
		t.Fatalf("no stale warning: %s", stale.String())
	}
}

// TestStrictBaseline pins the CI gate: a stale baseline entry is a
// warning by default but exit 1 under StrictBaseline, and a
// strict-baseline run with nothing stale stays 0.
func TestStrictBaseline(t *testing.T) {
	dir := writeModule(t, dirtySrc)

	var jsonOut strings.Builder
	if code := unitlint.Main(&jsonOut, dir, "seededrand", unitlint.Options{JSON: true}, nil); code != 1 {
		t.Fatalf("dirty run exit = %d, want 1", code)
	}
	baseline := filepath.Join(dir, "lint.baseline")
	if err := os.WriteFile(baseline, []byte(jsonOut.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	// Entry live and matched: strict mode is as quiet as lax mode.
	var quiet strings.Builder
	if code := unitlint.Main(&quiet, dir, "seededrand", unitlint.Options{StrictBaseline: true}, nil); code != 0 {
		t.Fatalf("strict run with live baseline exit = %d, want 0; output:\n%s", code, quiet.String())
	}

	// Fix the violation: the now-stale entry fails only the strict run.
	if err := os.WriteFile(filepath.Join(dir, "scratch.go"),
		[]byte("package scratch\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var lax strings.Builder
	if code := unitlint.Main(&lax, dir, "seededrand", unitlint.Options{}, nil); code != 0 {
		t.Fatalf("lax stale run exit = %d, want 0; output:\n%s", code, lax.String())
	}
	var strict strings.Builder
	if code := unitlint.Main(&strict, dir, "seededrand", unitlint.Options{StrictBaseline: true}, nil); code != 1 {
		t.Fatalf("strict stale run exit = %d, want 1; output:\n%s", code, strict.String())
	}
	if !strings.Contains(strict.String(), "stale baseline entry") {
		t.Fatalf("strict run did not name the stale entry: %s", strict.String())
	}
}

// TestTimings checks both renderings of per-analyzer wall time: a
// {"timings_ms":{...}} JSON line covering every selected analyzer, and
// the human-readable table.
func TestTimings(t *testing.T) {
	dir := writeModule(t, "package scratch\n")

	var jsonOut strings.Builder
	if code := unitlint.Main(&jsonOut, dir, "seededrand,detclock",
		unitlint.Options{JSON: true, Timings: true}, nil); code != 0 {
		t.Fatalf("clean run exit = %d; output:\n%s", code, jsonOut.String())
	}
	var line struct {
		Timings map[string]float64 `json:"timings_ms"`
	}
	if err := json.Unmarshal([]byte(strings.TrimSpace(jsonOut.String())), &line); err != nil {
		t.Fatalf("timings line is not JSON: %v\n%s", err, jsonOut.String())
	}
	for _, name := range []string{"seededrand", "detclock"} {
		if _, ok := line.Timings[name]; !ok {
			t.Errorf("timings_ms missing %q: %v", name, line.Timings)
		}
	}
	if len(line.Timings) != 2 {
		t.Errorf("timings_ms = %v, want exactly the 2 selected analyzers", line.Timings)
	}

	var text strings.Builder
	if code := unitlint.Main(&text, dir, "seededrand",
		unitlint.Options{Timings: true}, nil); code != 0 {
		t.Fatalf("text run exit = %d; output:\n%s", code, text.String())
	}
	if !strings.Contains(text.String(), "unitlint: timing: seededrand") {
		t.Fatalf("no timing table line: %s", text.String())
	}
}

// TestIgnoreAudit pins the hardening: a scoped, reasoned ignore
// suppresses its finding; bare, unreasoned, or misspelled ignores
// suppress nothing and are findings themselves.
func TestIgnoreAudit(t *testing.T) {
	dir := writeModule(t, `package scratch

import "math/rand"

func a() int { return rand.Int() } //unitlint:ignore seededrand -- scratch module rolls dice deliberately

func b() int { return rand.Int() } //unitlint:ignore

func c() int { return rand.Int() } //unitlint:ignore seededrand

func d() { _ = 0 } //unitlint:ignore seededrnad -- typo in the analyzer name
`)
	diags, err := unitlint.Run(dir, []string{"./..."}, unitlint.Analyzers)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d:%s", d.Pos.Line, d.Analyzer))
	}
	// Line 5 is suppressed. Lines 7 and 9 keep their seededrand findings
	// AND gain an ignore-audit finding each; line 11 is a bad name.
	want := []string{"7:ignore", "7:seededrand", "9:ignore", "9:seededrand", "11:ignore"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("audit findings = %v, want %v\nfull: %s", got, want, analysistest.Fprint(diags))
	}
}
