// Package analysis is a self-contained miniature of
// golang.org/x/tools/go/analysis, carrying just what unitlint's checkers
// need: an Analyzer descriptor, a per-package Pass with parsed files, and
// positioned diagnostics. The container this repo builds in has no module
// proxy access, so vendoring the real x/tools is not an option; the API
// mirrors it closely enough that the analyzers port mechanically if the
// dependency ever becomes available.
//
// The deliberate difference from x/tools: passes are purely syntactic.
// There is no types.Info and no Facts store — every unitlint invariant
// (wall-clock calls, global math/rand, literal ranges) is checkable from the AST plus per-file import tables, and
// staying type-free keeps the loader trivial and fast.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in -only lists.
	// It must be a valid identifier.
	Name string
	// Doc is the help text: first line is the summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Package is one parsed Go package as the loader sees it: all source
// files of a directory that share a package name.
type Package struct {
	// Path is the import path ("unitdb/internal/engine"). Fixture
	// packages under an analysistest testdata tree use the path below
	// testdata/src, mirroring x/tools.
	Path string
	// Name is the package identifier.
	Name string
	// Dir is the absolute directory the files came from.
	Dir string
	// Fset positions every file in Files.
	Fset *token.FileSet
	// Files holds the parsed sources, comments included. Test files
	// (_test.go) are present; analyzers that must skip them can consult
	// Pass.InTestFile.
	Files []*ast.File
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// NewPass prepares a run of a over pkg, appending findings to sink.
func NewPass(a *Analyzer, pkg *Package, sink *[]Diagnostic) *Pass {
	return &Pass{Analyzer: a, Pkg: pkg, diags: sink}
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Pkg.Fset.Position(pos).Filename, "_test.go")
}

// ImportNames returns every name under which file imports path — a file
// may import one path several times under different names. Blank imports
// are omitted; a dot import contributes ".".
func ImportNames(file *ast.File, path string) []string {
	var names []string
	for _, imp := range file.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name != "_" {
				names = append(names, imp.Name.Name)
			}
			continue
		}
		// Default name: the last path element ("math/rand" → "rand").
		if i := strings.LastIndex(p, "/"); i >= 0 {
			names = append(names, p[i+1:])
		} else {
			names = append(names, p)
		}
	}
	return names
}
