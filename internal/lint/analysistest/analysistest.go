// Package analysistest runs a unitlint analyzer over fixture packages and
// checks its diagnostics against expectations written in the fixtures
// themselves, mirroring golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures live under <analyzer pkg>/testdata/src/<importpath>/ and use
// GOPATH-style layout so an analyzer that scopes itself by import path
// (detclock's core-package list, for example) sees realistic paths.
// An expectation is a trailing comment on the offending line:
//
//	time.Now() // want `wall clock`
//
// The backquoted (or double-quoted) text is a regular expression that must
// match the message of exactly one diagnostic reported on that line.
// Lines without a want comment must produce no diagnostics, so every
// fixture doubles as its own negative test; clean files pin the
// analyzer's false-positive behaviour.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"unitdb/internal/lint/analysis"
	"unitdb/internal/lint/loader"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData() string {
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	return filepath.Join(wd, "testdata")
}

// Run loads each fixture package (an import path below testdata/src) and
// applies the analyzer, failing t on any mismatch between reported and
// expected diagnostics.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	for _, path := range paths {
		runOne(t, testdata, a, path)
	}
}

type expect struct {
	file string
	line int
	re   *regexp.Regexp
	seen bool // a diagnostic matched
}

var wantPatRE = regexp.MustCompile("^\\s*(`([^`]*)`|\"([^\"]*)\")")

func runOne(t *testing.T, testdata string, a *analysis.Analyzer, path string) {
	t.Helper()
	dir := filepath.Join(testdata, "src", filepath.FromSlash(path))
	pkg, err := loader.ParseDir(dir, path)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if pkg == nil {
		t.Fatalf("%s: no Go files in %s", path, dir)
	}

	var expects []*expect
	for _, f := range pkg.Files {
		expects = append(expects, collectWants(t, pkg.Fset, f)...)
	}

	var diags []analysis.Diagnostic
	pass := analysis.NewPass(a, pkg, &diags)
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: analyzer %s: %v", path, a.Name, err)
	}

	for _, d := range diags {
		matched := false
		for _, e := range expects {
			if e.seen || e.file != d.Pos.Filename || e.line != d.Pos.Line {
				continue
			}
			if e.re.MatchString(d.Message) {
				e.seen = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", path, d)
		}
	}
	for _, e := range expects {
		if !e.seen {
			t.Errorf("%s: %s:%d: expected a diagnostic matching %q, got none",
				path, e.file, e.line, e.re)
		}
	}
}

// collectWants extracts // want expectations from one file. A want
// comment applies to the line it sits on.
func collectWants(t *testing.T, fset *token.FileSet, f *ast.File) []*expect {
	t.Helper()
	var out []*expect
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			_, rest, ok := strings.Cut(c.Text, "// want ")
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			// A single want comment may carry several space-separated
			// patterns, one per expected diagnostic on the line.
			for {
				m := wantPatRE.FindStringSubmatch(rest)
				if m == nil {
					break
				}
				pat := m[2]
				if pat == "" {
					pat = m[3]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
				}
				out = append(out, &expect{file: pos.Filename, line: pos.Line, re: re})
				rest = rest[len(m[0]):]
			}
		}
	}
	return out
}

// Fprint renders diagnostics for debugging fixture failures.
func Fprint(diags []analysis.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintln(&b, d)
	}
	return b.String()
}
