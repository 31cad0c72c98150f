package callgraph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"unitdb/internal/lint/analysis"
)

func parsePkg(t *testing.T, src string) *analysis.Package {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return &analysis.Package{
		Path:  "unitdb/internal/cgfix",
		Name:  file.Name.Name,
		Fset:  fset,
		Files: []*ast.File{file},
	}
}

const src = `package cgfix

import (
	"net/http"
	"sync"
)

var global int

type Inner struct{}

func (i *Inner) Ping() {}

type Store struct {
	mu     sync.Mutex
	inner  *Inner
	byName map[string]int
}

func (s *Store) Get() int { return 0 }

func helper() {}

func Top(s *Store) {
	helper()
	s.Get()
	s.inner.Ping()
	go helper()
	go func() { helper() }()
	f := func() { helper() }
	f()
	unknown()
	cb(helper)
}

func Handler(w http.ResponseWriter) { helper() }
`

func build(t *testing.T) *Graph {
	t.Helper()
	return Build(parsePkg(t, src))
}

func TestDecls(t *testing.T) {
	g := build(t)
	for _, id := range []FuncID{"Inner.Ping", "Store.Get", "helper", "Top", "Handler"} {
		if g.Funcs[id] == nil {
			t.Errorf("Funcs missing %q", id)
		}
	}
	if !g.PkgVars["global"] {
		t.Error("PkgVars missing global")
	}
	if !g.MapFields["byName"] {
		t.Error("MapFields missing byName")
	}
	if got := g.FieldTypes["Store"]["inner"]; got != "Inner" {
		t.Errorf("FieldTypes[Store][inner] = %q, want %q", got, "Inner")
	}
	if !g.Handlers["Handler"] || g.Handlers["Top"] {
		t.Errorf("Handlers = %v, want exactly {Handler}", g.Handlers)
	}
}

// TestEdges checks resolution and goroutine-context classification of
// every call site in Top — and that the unresolvable ones (unknown(),
// f(), a function value passed as an argument) contribute no edge.
func TestEdges(t *testing.T) {
	g := build(t)
	type ck struct {
		callee FuncID
		kind   EdgeKind
	}
	counts := map[ck]int{}
	for _, e := range g.Callees["Top"] {
		counts[ck{e.Callee, e.Kind}]++
	}
	want := map[ck]int{
		{"helper", Call}:     1,
		{"Store.Get", Call}:  1,
		{"Inner.Ping", Call}: 1, // one level of field indirection
		{"helper", Spawn}:    2, // go helper() and go func(){ helper() }()
		{"helper", Closure}:  1, // the unspawned literal bound to f
	}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("edges Top -> %s (%s): got %d, want %d", k.callee, k.kind, counts[k], n)
		}
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 6 {
		t.Errorf("Top has %d resolved edges, want 6 (unresolved calls must add none)", total)
	}
}

func TestBindings(t *testing.T) {
	g := build(t)
	b := g.Bindings("Top")
	if b["s"] != "Store" {
		t.Errorf(`Bindings(Top)["s"] = %q, want "Store"`, b["s"])
	}
	if typ, ok := b["f"]; ok {
		t.Errorf("function literal bound f should stay untyped, got %q", typ)
	}
	if rb := g.Bindings("Store.Get"); rb["s"] != "Store" {
		t.Errorf("receiver binding = %q, want Store", rb["s"])
	}
}

// TestReachable checks BFS over a kind filter: plain calls only must not
// cross the spawn edges.
func TestReachable(t *testing.T) {
	g := build(t)
	calls := g.Reachable([]FuncID{"Top"}, func(k EdgeKind) bool { return k == Call })
	for _, id := range []FuncID{"Top", "helper", "Store.Get", "Inner.Ping"} {
		if !calls[id] {
			t.Errorf("Reachable(Top, Call) missing %q", id)
		}
	}
	if calls["Handler"] {
		t.Error("Handler must not be reachable from Top")
	}
	none := g.Reachable([]FuncID{"Inner.Ping"}, func(EdgeKind) bool { return true })
	if len(none) != 1 || !none["Inner.Ping"] {
		t.Errorf("Reachable(Inner.Ping) = %v, want just the root", none)
	}
}

// TestEdgesDeterministic pins the position ordering of Edges, which the
// analyzers rely on for stable findings.
func TestEdgesDeterministic(t *testing.T) {
	g := build(t)
	for i := 1; i < len(g.Edges); i++ {
		if g.Edges[i-1].Pos > g.Edges[i].Pos {
			t.Fatalf("Edges out of position order at %d", i)
		}
	}
}

const devirtSrc = `package cgfix

type Policy interface {
	Score(x int) int
	Reset()
}

type Greedy struct{}

func (g *Greedy) Score(x int) int { return x }
func (g *Greedy) Reset()          {}

type Fair struct{}

func (f *Fair) Score(x int) int { return -x }
func (f *Fair) Reset()          {}

// Partial has the right names but the wrong Score arity: not an
// implementer.
type Partial struct{}

func (p *Partial) Score() int { return 0 }
func (p *Partial) Reset()     {}

// Tainted embeds a cross-package interface: dropped entirely.
type Tainted interface {
	Policy
	fmtStringer
}

type Scorer interface{ Score(x int) int }

type Runner struct {
	p  Policy
	cb func()
}

func Apply(p Policy, x int) int {
	p.Reset()
	return p.Score(x)
}

func (r *Runner) Drive() int { return r.p.Score(1) }

func onTick() {}

func Register(r *Runner) {
	r.cb = onTick
	f := onTick
	f()
	run(onTick)
}

func run(cb func()) { cb() }

func (r *Runner) Fire() { r.cb() }
`

func buildDevirt(t *testing.T) *Graph {
	t.Helper()
	return Build(parsePkg(t, devirtSrc))
}

// TestImplementers checks CHA matching: name+arity method sets, the
// arity mismatch exclusion, and subset interfaces matching supersets.
func TestImplementers(t *testing.T) {
	g := buildDevirt(t)
	wantPolicy := []string{"Fair", "Greedy"}
	if got := g.Implementers["Policy"]; len(got) != 2 || got[0] != wantPolicy[0] || got[1] != wantPolicy[1] {
		t.Errorf("Implementers[Policy] = %v, want %v", got, wantPolicy)
	}
	for _, impl := range g.Implementers["Policy"] {
		if impl == "Partial" {
			t.Error("Partial matches Policy despite the Score arity mismatch")
		}
	}
	// Scorer's single method is satisfied by both concrete types too.
	if got := g.Implementers["Scorer"]; len(got) != 2 {
		t.Errorf("Implementers[Scorer] = %v, want both concrete types", got)
	}
	if _, ok := g.Interfaces["Tainted"]; ok {
		t.Error("Tainted embeds an unresolvable interface and must be dropped")
	}
	if got := g.Interfaces["Policy"]; len(got) != 2 || got[0] != "Reset" || got[1] != "Score" {
		t.Errorf("Interfaces[Policy] = %v, want [Reset Score]", got)
	}
}

// TestDevirtEdges checks that interface calls fan out to every
// implementer, through parameters and one field indirection alike.
func TestDevirtEdges(t *testing.T) {
	g := buildDevirt(t)
	count := func(caller, callee FuncID) int {
		n := 0
		for _, e := range g.Callees[caller] {
			if e.Callee == callee {
				n++
			}
		}
		return n
	}
	// Apply: p.Reset() and p.Score(x) each fan out to Greedy and Fair.
	for _, callee := range []FuncID{"Greedy.Score", "Fair.Score", "Greedy.Reset", "Fair.Reset"} {
		if got := count("Apply", callee); got != 1 {
			t.Errorf("edges Apply -> %s: got %d, want 1", callee, got)
		}
	}
	// Drive: r.p.Score(1) — interface behind one field indirection.
	if count("Runner.Drive", "Greedy.Score") != 1 || count("Runner.Drive", "Fair.Score") != 1 {
		t.Errorf("Runner.Drive edges = %v, want devirtualized Score fan-out", g.Callees["Runner.Drive"])
	}
}

// TestFuncValueEdges checks the flow-insensitive function-value
// bindings: locals, struct fields, and resolved call arguments.
func TestFuncValueEdges(t *testing.T) {
	g := buildDevirt(t)
	count := func(caller, callee FuncID) int {
		n := 0
		for _, e := range g.Callees[caller] {
			if e.Callee == callee {
				n++
			}
		}
		return n
	}
	if got := count("Register", "onTick"); got != 1 {
		t.Errorf("f := onTick; f() edges = %d, want 1", got)
	}
	if got := count("run", "onTick"); got != 1 {
		t.Errorf("run(onTick) must bind run's parameter: edges run -> onTick = %d, want 1", got)
	}
	if got := count("Runner.Fire", "onTick"); got != 1 {
		t.Errorf("r.cb = onTick must bind the field: edges Runner.Fire -> onTick = %d, want 1", got)
	}
}
