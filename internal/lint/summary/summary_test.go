package summary

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"

	"unitdb/internal/lint/analysis"
	"unitdb/internal/lint/callgraph"
)

func parsePkg(t *testing.T, src string) *analysis.Package {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return &analysis.Package{
		Path:  "unitdb/internal/sumfix",
		Name:  file.Name.Name,
		Fset:  fset,
		Files: []*ast.File{file},
	}
}

const src = `package sumfix

import (
	"sort"
	"sync"
)

var pkgMu sync.Mutex

type Store struct {
	mu    sync.Mutex
	items map[string]int
}

func (s *Store) lockBoth() {
	s.mu.Lock()
	pkgMu.Lock()
	pkgMu.Unlock()
	s.mu.Unlock()
}

func (s *Store) indirect() {
	s.lockBoth()
}

func (s *Store) spawner() {
	go s.lockBoth()
}

func localLock() {
	var mu sync.Mutex
	mu.Lock()
	mu.Unlock()
}

func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func relay(m map[string]int) []string {
	return keys(m)
}

func sortedKeys(m map[string]int) []string {
	out := keys(m)
	sort.Strings(out)
	return out
}
`

// TestLockClasses checks key normalization: receiver-rooted keys become
// type classes, package variables become (pkg) classes, and a purely
// local mutex stays scoped to its function.
func TestLockClasses(t *testing.T) {
	s := Of(parsePkg(t, src))
	want := []string{"(Store).mu", "(pkg).pkgMu"}
	if got := s.DirectAcquires["Store.lockBoth"]; !reflect.DeepEqual(got, want) {
		t.Errorf("DirectAcquires[Store.lockBoth] = %v, want %v", got, want)
	}
	if got := s.DirectAcquires["localLock"]; !reflect.DeepEqual(got, []string{"(localLock).mu"}) {
		t.Errorf("DirectAcquires[localLock] = %v, want the function-scoped class", got)
	}
}

// TestAcquiresTransitive checks closure over plain call edges — and that
// spawned calls do not propagate (the caller's goroutine never takes the
// spawned callee's locks at the call site).
func TestAcquiresTransitive(t *testing.T) {
	s := Of(parsePkg(t, src))
	want := []string{"(Store).mu", "(pkg).pkgMu"}
	if got := s.Acquires["Store.indirect"]; !reflect.DeepEqual(got, want) {
		t.Errorf("Acquires[Store.indirect] = %v, want %v", got, want)
	}
	if got := s.Acquires["Store.spawner"]; len(got) != 0 {
		t.Errorf("Acquires[Store.spawner] = %v, want none (spawn edges excluded)", got)
	}
}

// TestMapOrdered checks the cross-function taint fixpoint: a function
// returning map-range order is flagged, a caller relaying it inherits
// the flag, and an intervening sort clears it.
func TestMapOrdered(t *testing.T) {
	s := Of(parsePkg(t, src))
	for fn, want := range map[callgraph.FuncID]bool{
		"keys":       true,
		"relay":      true,
		"sortedKeys": false,
		"localLock":  false,
	} {
		if got := s.MapOrdered[fn]; got != want {
			t.Errorf("MapOrdered[%s] = %v, want %v", fn, got, want)
		}
	}
}

// TestCache checks the per-package memoization the driver relies on:
// same *Package pointer, same *Summary.
func TestCache(t *testing.T) {
	pkg := parsePkg(t, src)
	if Of(pkg) != Of(pkg) {
		t.Error("Of(pkg) recomputed for the same package pointer")
	}
	if Of(pkg) == Of(parsePkg(t, src)) {
		t.Error("distinct package pointers must not share a summary")
	}
}

// TestTaintUnit exercises the intra-unit lattice directly: range over a
// map taints the key, an append inside the loop taints the slice, a
// compound assignment neither taints nor launders, and a sort untaints.
func TestTaintUnit(t *testing.T) {
	const unitSrc = `package sumfix

import "sort"

func f(m map[string]int) (int, []string) {
	total := 0
	var names []string
	for k, v := range m {
		names = append(names, k)
		total += v
	}
	copied := names
	sort.Strings(names)
	_ = copied
	return total, names
}
`
	s := Of(parsePkg(t, unitSrc))
	fd := s.Graph.Funcs["f"]
	if fd == nil {
		t.Fatal("fixture function f not found")
	}
	u := s.NewTaintUnit("f", fd.Body, nil)

	// At the (single) return, names was sorted but copied aliased the
	// unsorted slice; total accumulated order-independently.
	var ret *ast.ReturnStmt
	var fact Taint
	for _, b := range u.CFG.Blocks {
		in := u.Result.In[b.Index]
		if in == nil && b.Index != 0 {
			continue
		}
		f := Taint{}
		if in != nil {
			f = in.(Taint)
		}
		for _, node := range b.Nodes {
			if r, ok := node.(*ast.ReturnStmt); ok {
				ret, fact = r, f
			}
			f = u.Transfer(node, f).(Taint)
		}
	}
	if ret == nil {
		t.Fatal("no reachable return found")
	}
	if u.ExprTainted(fact, ret.Results[0]) {
		t.Error("total is tainted; compound assignments must not propagate taint")
	}
	if u.ExprTainted(fact, ret.Results[1]) {
		t.Error("names is tainted after sort.Strings")
	}
	if !fact.Has("copied") {
		t.Error("copied lost its taint; sorting names must not launder aliases")
	}
	if s.MapOrdered["f"] {
		t.Error("MapOrdered[f] = true, want false (both returns are order-clean)")
	}
}
