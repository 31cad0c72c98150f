// Package summary computes per-function interprocedural facts over one
// package's call graph (internal/lint/callgraph) and caches them per
// loaded package, so the analyzers built on top — deadlock, owned,
// maporder — share one computation instead of three.
//
// Three kinds of facts:
//
//   - Lock classes and acquire sets. Every mutex key the lockstate
//     lattice tracks ("s.mu") is normalized to a package-global lock
//     class — "(Server).mu" when the key is rooted in a receiver, a
//     parameter, or a local of syntactically evident named type,
//     "(pkg).mu" for package-level variables, and a function-scoped
//     class otherwise (a purely local mutex cannot participate in a
//     cross-function cycle). DirectAcquires is the set of classes a
//     function's own body may lock; Acquires closes it transitively
//     over plain call edges (spawned and closure calls excluded: their
//     locks are not acquired by the caller's goroutine at the call
//     site).
//
//   - Map-order taint. A forward dataflow analysis (the Taint lattice
//     in this package) tracks which variables carry nondeterministic
//     map-iteration order: range over a map taints the iteration
//     variables, appending inside a map-range loop taints the slice
//     (the append order is the iteration order), taint propagates
//     through copies, composite literals, and indexing, and an
//     explicit sort untaints. MapOrdered marks functions whose return
//     value can carry taint — calls to such in-package functions taint
//     their results, which is how the property crosses function
//     boundaries.
//
//   - The graph itself, re-exported so analyzers resolve calls and
//     reachability against the same tables.
//
// Soundness posture, inherited from the callgraph: everything here
// under-approximates (unresolved calls contribute nothing), so the
// analyzers report only what the syntax proves and stay quiet on
// dynamic dispatch.
package summary

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"sync"

	"unitdb/internal/lint/analysis"
	"unitdb/internal/lint/callgraph"
	"unitdb/internal/lint/cfg"
	"unitdb/internal/lint/dataflow"
	"unitdb/internal/lint/lockstate"
)

// Summary holds one package's interprocedural facts.
type Summary struct {
	Graph *callgraph.Graph

	// DirectAcquires maps function → the sorted lock classes its own
	// body may Lock/RLock (function literals excluded — a closure's
	// locks run when the closure runs).
	DirectAcquires map[callgraph.FuncID][]string
	// Acquires is the transitive closure of DirectAcquires over plain
	// call edges.
	Acquires map[callgraph.FuncID][]string
	// MapOrdered marks functions whose return value can carry
	// map-iteration order.
	MapOrdered map[callgraph.FuncID]bool
}

var (
	cacheMu sync.Mutex
	cache   = map[*analysis.Package]*Summary{}
)

// Of returns the package's summary, computing it on first request. The
// driver runs several analyzers over the same *Package value, so the
// cache key is the package pointer itself.
func Of(pkg *analysis.Package) *Summary {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if s, ok := cache[pkg]; ok {
		return s
	}
	s := compute(pkg)
	cache[pkg] = s
	return s
}

func compute(pkg *analysis.Package) *Summary {
	s := &Summary{
		Graph:          callgraph.Build(pkg),
		DirectAcquires: map[callgraph.FuncID][]string{},
		Acquires:       map[callgraph.FuncID][]string{},
		MapOrdered:     map[callgraph.FuncID]bool{},
	}
	s.computeAcquires()
	s.computeMapOrdered()
	return s
}

// --- lock classes ---

// LockClass normalizes a lockstate mutex key as seen inside fn to a
// package-global class name.
func (s *Summary) LockClass(fn callgraph.FuncID, key string) string {
	root, rest, _ := strings.Cut(key, ".")
	if typ, ok := s.Graph.Bindings(fn)[root]; ok && typ != "" {
		if rest != "" {
			return "(" + typ + ")." + rest
		}
		// A bare identifier bound to a named type used as a mutex —
		// the local itself is the mutex; scope it to the function.
		return "(" + string(fn) + ")." + key
	}
	if s.Graph.PkgVars[root] {
		return "(pkg)." + key
	}
	return "(" + string(fn) + ")." + key
}

// directAcquires collects the classes fn's own body may lock, with
// function literals skipped.
func (s *Summary) directAcquires(fn callgraph.FuncID, fd *ast.FuncDecl) []string {
	set := map[string]bool{}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(c ast.Node) bool {
			if _, ok := c.(*ast.FuncLit); ok {
				return false
			}
			call, ok := c.(*ast.CallExpr)
			if !ok || len(call.Args) != 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
				return true
			}
			if key := lockstate.Flatten(sel.X); key != "" {
				set[s.LockClass(fn, key)] = true
			}
			return true
		})
	}
	walk(fd.Body)
	return sortedSet(set)
}

func (s *Summary) computeAcquires() {
	for fn, fd := range s.Graph.Funcs {
		s.DirectAcquires[fn] = s.directAcquires(fn, fd)
	}
	// Transitive closure over plain call edges; classes only grow, so
	// round-robin iteration reaches the fixpoint.
	trans := map[callgraph.FuncID]map[string]bool{}
	for fn, direct := range s.DirectAcquires {
		set := map[string]bool{}
		for _, c := range direct {
			set[c] = true
		}
		trans[fn] = set
	}
	for changed := true; changed; {
		changed = false
		for _, e := range s.Graph.Edges {
			if e.Kind != callgraph.Call {
				continue
			}
			from, to := trans[e.Caller], trans[e.Callee]
			for c := range to {
				if !from[c] {
					from[c] = true
					changed = true
				}
			}
		}
	}
	for fn, set := range trans {
		s.Acquires[fn] = sortedSet(set)
	}
}

func sortedSet(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// --- map-order taint ---

// Taint is the dataflow fact: the set of flattened variable names that
// carry map-iteration order at a program point.
type Taint map[string]bool

// Equal implements dataflow.Fact.
func (t Taint) Equal(o dataflow.Fact) bool {
	u := o.(Taint)
	if len(t) != len(u) {
		return false
	}
	for k := range t {
		if !u[k] {
			return false
		}
	}
	return true
}

func (t Taint) clone() Taint {
	out := make(Taint, len(t))
	for k := range t {
		out[k] = true
	}
	return out
}

// Has reports whether name or any selector prefix of it is tainted
// ("s.f" is tainted when "s" is).
func (t Taint) Has(name string) bool {
	if name == "" {
		return false
	}
	for {
		if t[name] {
			return true
		}
		i := strings.LastIndex(name, ".")
		if i < 0 {
			return false
		}
		name = name[:i]
	}
}

func (t Taint) set(name string, on bool) {
	if name == "" {
		return
	}
	if on {
		t[name] = true
		return
	}
	delete(t, name)
	// Untainting a variable also clears taint recorded on its fields.
	for k := range t {
		if strings.HasPrefix(k, name+".") {
			delete(t, k)
		}
	}
}

func joinTaint(a, b dataflow.Fact) dataflow.Fact {
	ta, tb := a.(Taint), b.(Taint)
	out := ta.clone()
	for k := range tb {
		out[k] = true
	}
	return out
}

// TaintUnit is the map-order taint analysis of one function body (a
// FuncDecl body or a function literal's). Build it with NewTaintUnit,
// then read Result facts or replay blocks for reporting.
type TaintUnit struct {
	Summary *Summary
	// Fn is the enclosing declared function, used for call resolution
	// and name bindings (function literals share their encloser's).
	Fn     callgraph.FuncID
	Body   *ast.BlockStmt
	CFG    *cfg.CFG
	Result *dataflow.Result

	localMaps map[string]bool     // names of evident map type in this unit
	inMapLoop map[*cfg.Block]bool // blocks inside a map-range loop body
}

// NewTaintUnit builds and solves the taint analysis for one body.
// extraMaps adds unit-local map-typed names (a literal's parameters).
func (s *Summary) NewTaintUnit(fn callgraph.FuncID, body *ast.BlockStmt, extraMaps map[string]bool) *TaintUnit {
	u := &TaintUnit{
		Summary:   s,
		Fn:        fn,
		Body:      body,
		CFG:       cfg.New(body),
		localMaps: map[string]bool{},
		inMapLoop: map[*cfg.Block]bool{},
	}
	for name := range extraMaps {
		u.localMaps[name] = true
	}
	u.collectLocalMaps()
	u.markMapLoops()
	u.Result = dataflow.Solve(u.CFG, &dataflow.Analysis{
		Entry:    Taint{},
		Join:     joinTaint,
		Transfer: u.Transfer,
	})
	return u
}

// collectLocalMaps finds names of evident map type: parameters and
// receiver fields are handled via MapFields; here the unit's own
// `var m map[...]`, `m := make(map[...])`, `m := map[...]{...}`.
func (u *TaintUnit) collectLocalMaps() {
	if fd, ok := u.Summary.Graph.Funcs[u.Fn]; ok && fd.Type.Params != nil {
		for _, p := range fd.Type.Params.List {
			if _, isMap := p.Type.(*ast.MapType); isMap {
				for _, n := range p.Names {
					u.localMaps[n.Name] = true
				}
			}
		}
	}
	ast.Inspect(u.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			if _, isMap := n.Type.(*ast.MapType); isMap {
				for _, name := range n.Names {
					u.localMaps[name.Name] = true
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if exprIsMapValue(n.Rhs[i]) {
					u.localMaps[id.Name] = true
				}
			}
		}
		return true
	})
}

// exprIsMapValue reports whether e evidently constructs a map.
func exprIsMapValue(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		_, ok := e.Type.(*ast.MapType)
		return ok
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		if !ok || id.Name != "make" || len(e.Args) == 0 {
			return false
		}
		_, ok = e.Args[0].(*ast.MapType)
		return ok
	}
	return false
}

// IsMapExpr reports whether e denotes a map: a known local map name, or
// a selector whose final field is map-typed somewhere in the package.
func (u *TaintUnit) IsMapExpr(e ast.Expr) bool {
	name := lockstate.Flatten(e)
	if name == "" {
		return false
	}
	if u.localMaps[name] {
		return true
	}
	if i := strings.LastIndex(name, "."); i >= 0 {
		return u.Summary.Graph.MapFields[name[i+1:]]
	}
	return false
}

// markMapLoops marks every block in the body of a loop that ranges over
// a map: appends executed there happen in map-iteration order.
func (u *TaintUnit) markMapLoops() {
	for _, loop := range u.CFG.Loops {
		isMap := false
		for _, b := range loop.Body {
			for _, n := range b.Nodes {
				if rb, ok := n.(*cfg.RangeBind); ok && u.IsMapExpr(rb.Range.X) {
					isMap = true
				}
			}
		}
		if !isMap {
			continue
		}
		for _, b := range loop.Body {
			u.inMapLoop[b] = true
		}
	}
}

// InMapLoopBlock reports whether block b executes inside a map-range
// loop body.
func (u *TaintUnit) InMapLoopBlock(b *cfg.Block) bool { return u.inMapLoop[b] }

// blockOf finds the block containing node n (the transfer function is
// called per node; append handling needs the loop context).
func (u *TaintUnit) blockOf(n ast.Node) *cfg.Block {
	for _, b := range u.CFG.Blocks {
		for _, m := range b.Nodes {
			if m == n {
				return b
			}
		}
	}
	return nil
}

// ExprTainted reports whether e carries map-iteration order under fact
// f. Taint flows through names, composite literals, indexing, slicing,
// address-of, and calls to MapOrdered in-package functions; it does not
// flow through binary expressions (sums and comparisons over map values
// are order-independent).
func (u *TaintUnit) ExprTainted(f Taint, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		return f.Has(lockstate.Flatten(e))
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if u.ExprTainted(f, el) {
				return true
			}
		}
	case *ast.IndexExpr:
		return u.ExprTainted(f, e.X)
	case *ast.SliceExpr:
		return u.ExprTainted(f, e.X)
	case *ast.UnaryExpr:
		return u.ExprTainted(f, e.X)
	case *ast.StarExpr:
		return u.ExprTainted(f, e.X)
	case *ast.ParenExpr:
		return u.ExprTainted(f, e.X)
	case *ast.TypeAssertExpr:
		return u.ExprTainted(f, e.X)
	case *ast.CallExpr:
		if isAppend(e) {
			for _, a := range e.Args {
				if u.ExprTainted(f, a) {
					return true
				}
			}
			return false
		}
		for _, callee := range u.Summary.Graph.ResolveAll(u.Fn, e) {
			if u.Summary.MapOrdered[callee] {
				return true
			}
		}
	}
	return false
}

func isAppend(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "append"
}

// sortTargets returns the names a statement-level call untaints: the
// flattenable arguments of sort.* and slices.Sort* calls (including
// through a one-argument conversion like sort.Sort(byName(x))).
func sortTargets(call *ast.CallExpr) []string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || (pkg.Name != "sort" && pkg.Name != "slices") {
		return nil
	}
	var out []string
	for _, a := range call.Args {
		if conv, ok := a.(*ast.CallExpr); ok && len(conv.Args) == 1 {
			a = conv.Args[0]
		}
		if name := lockstate.Flatten(a); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// Transfer is the taint transfer function (dataflow.Analysis.Transfer).
func (u *TaintUnit) Transfer(n ast.Node, f dataflow.Fact) dataflow.Fact {
	t := f.(Taint)
	switch n := n.(type) {
	case *cfg.RangeBind:
		out := t.clone()
		tainted := u.IsMapExpr(n.Range.X) || u.ExprTainted(t, n.Range.X)
		for _, e := range []ast.Expr{n.Range.Key, n.Range.Value} {
			if e == nil {
				continue
			}
			out.set(lockstate.Flatten(e), tainted)
		}
		return out
	case *ast.AssignStmt:
		return u.transferAssign(n, t)
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return t
		}
		out := t.clone()
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				on := i < len(vs.Values) && u.ExprTainted(t, vs.Values[i])
				out.set(name.Name, on)
			}
		}
		return out
	case *ast.ExprStmt:
		call, ok := n.X.(*ast.CallExpr)
		if !ok {
			return t
		}
		if targets := sortTargets(call); len(targets) > 0 {
			out := t.clone()
			for _, name := range targets {
				out.set(name, false)
			}
			return out
		}
	}
	return t
}

func (u *TaintUnit) transferAssign(n *ast.AssignStmt, t Taint) dataflow.Fact {
	out := t.clone()
	if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
		// Compound assignment (+=, |=, ...): an accumulator folded over
		// a map range is order-independent for the numeric reductions
		// the repo writes, and string-concat order-dependence is not
		// provable without types. Leave the target's taint unchanged —
		// neither tainting the accumulator nor laundering taint it
		// already carries.
		return out
	}
	inLoop := false
	if b := u.blockOf(n); b != nil {
		inLoop = u.inMapLoop[b]
	}
	// Tuple form x, y := f(): one call feeding several names.
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		tainted := u.ExprTainted(t, n.Rhs[0])
		for _, lhs := range n.Lhs {
			if name := lockstate.Flatten(lhs); name != "" {
				out.set(name, tainted)
			}
		}
		return out
	}
	for i, lhs := range n.Lhs {
		if i >= len(n.Rhs) {
			break
		}
		if _, ok := lhs.(*ast.IndexExpr); ok {
			// Writes into maps (and slice elements) absorb order taint:
			// a map is unordered however it was filled, and a slice
			// element write at a fixed index is order-independent.
			continue
		}
		name := lockstate.Flatten(lhs)
		if name == "" {
			continue
		}
		rhs := n.Rhs[i]
		if call, ok := rhs.(*ast.CallExpr); ok && isAppend(call) {
			// Appending inside a map-range loop body records the
			// iteration order in the slice, whatever is appended.
			argTaint := u.ExprTainted(t, call)
			out.set(name, inLoop || argTaint || t.Has(name))
			continue
		}
		out.set(name, u.ExprTainted(t, rhs))
	}
	return out
}

// ReturnsTainted reports whether any normally-reachable return of the
// unit returns a tainted value, by replaying facts through exit blocks.
func (u *TaintUnit) ReturnsTainted() bool {
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
			if ret, ok := node.(*ast.ReturnStmt); ok {
				for _, res := range ret.Results {
					if u.ExprTainted(f, res) {
						return true
					}
				}
			}
			f = u.Transfer(node, f).(Taint)
		}
	}
	return false
}

// computeMapOrdered iterates the per-function taint analysis until the
// MapOrdered set stabilizes (calls to flagged functions taint their
// results, which can flag further functions; the set only grows, so the
// loop terminates).
func (s *Summary) computeMapOrdered() {
	fns := make([]callgraph.FuncID, 0, len(s.Graph.Funcs))
	for fn := range s.Graph.Funcs {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i] < fns[j] })
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if s.MapOrdered[fn] {
				continue
			}
			u := s.NewTaintUnit(fn, s.Graph.Funcs[fn].Body, nil)
			if u.ReturnsTainted() {
				s.MapOrdered[fn] = true
				changed = true
			}
		}
	}
}
