package guardedflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unitdb/internal/lint/analysis"
	"unitdb/internal/lint/analysistest"
)

func TestFixtures(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), Analyzer, "unitdb/internal/server")
}

// TestMutationAccessAfterUnlock is the seeded mutation check from the
// issue: moving the guarded `s.updatesApplied++` in Server.Update past
// the unlock must produce exactly one guardedflow finding on the real
// file — a mutation no lock-somewhere check can see (the method still
// locks).
func TestMutationAccessAfterUnlock(t *testing.T) {
	src := readServerGo(t)
	mutated := strings.Replace(src,
		"s.updatesApplied++\n\ts.obs.staleness.Set(float64(s.store.StaleItems()))\n\ts.mu.Unlock()",
		"s.obs.staleness.Set(float64(s.store.StaleItems()))\n\ts.mu.Unlock()\n\ts.updatesApplied++", 1)
	if mutated == src {
		t.Fatal("mutation had no effect; did internal/server/server.go change shape?")
	}

	diags := runOnSource(t, mutated)
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want exactly 1:\n%s",
			len(diags), analysistest.Fprint(diags))
	}
	if !strings.Contains(diags[0].Message, "updatesApplied") ||
		!strings.Contains(diags[0].Message, "not provably held") {
		t.Errorf("finding is not the moved access: %s", diags[0])
	}
}

// TestUnmutatedServerIsClean pins the baseline the mutation test depends
// on: the real file alone must produce no guardedflow findings.
func TestUnmutatedServerIsClean(t *testing.T) {
	if diags := runOnSource(t, readServerGo(t)); len(diags) != 0 {
		t.Fatalf("unexpected findings on pristine server.go:\n%s",
			analysistest.Fprint(diags))
	}
}

func readServerGo(t *testing.T) string {
	t.Helper()
	path := filepath.Join("..", "..", "server", "server.go")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading real source: %v", err)
	}
	return string(b)
}

func runOnSource(t *testing.T, src string) []analysis.Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "server.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pkg := &analysis.Package{
		Path:  "unitdb/internal/server",
		Name:  file.Name.Name,
		Fset:  fset,
		Files: []*ast.File{file},
	}
	var diags []analysis.Diagnostic
	if err := Analyzer.Run(analysis.NewPass(Analyzer, pkg, &diags)); err != nil {
		t.Fatalf("analyzer: %v", err)
	}
	var kept []analysis.Diagnostic
	for _, d := range diags {
		if !analysis.Suppressed(pkg, d) {
			kept = append(kept, d)
		}
	}
	return kept
}
