// Package callgraph builds a package-level call graph for unitlint's
// interprocedural analyzers, purely syntactically (the analysis framework
// has no types.Info; see internal/lint/analysis for the policy). It
// resolves what static syntax can honestly resolve:
//
//   - direct calls to package-level functions: f()
//   - method calls through the receiver of the enclosing method: s.m()
//   - method calls through locals and parameters whose named type is
//     syntactically evident (var x T; x := T{...}; x := &T{...};
//     x := new(T); func f(x *T)): x.m()
//   - one level of field indirection when the field's declared type is a
//     named in-package type: s.field.m() where field's type is known
//   - interface method calls, devirtualized CHA-style: a call x.m()
//     where x's evident type is a package-local interface resolves to
//     T.m for every package-local concrete type T whose declared method
//     set covers the interface (matched by method name and arity — the
//     closest honest approximation of implements without go/types).
//     One level of field indirection applies here too: s.field.m()
//     where field's declared type is a local interface fans out the
//     same way.
//   - function values, flow-insensitively: assignments of named
//     functions and bound methods to variables (f := helper), to
//     struct fields (s.cb = helper, T{cb: helper}), and to the
//     parameters of resolved in-package calls (run(helper) binds run's
//     parameter) accumulate into binding sets, and a later call through
//     the variable, field, or parameter produces an edge to every
//     function ever bound there.
//
// Everything else — calls through composite expressions, cross-package
// interfaces, function values the package never binds — stays
// unresolved, and unresolved calls simply contribute no edge. Consumers
// must treat a missing edge as "unknown", never as "does not call": the
// graph under-approximates the real call relation, which is the honest
// direction for the analyzers built on it (deadlock and owned only
// report facts provable from edges that do exist). Devirtualized and
// function-value edges point at real package functions that the syntax
// shows can be bound at the call site; a call with several candidates
// gets one edge per candidate.
//
// Each edge is classified by the goroutine context of its call site:
// a plain call (Call), a call inside a function literal that is not the
// operand of a go statement (Closure — the callee runs whenever the
// closure runs, possibly on the same goroutine, e.g. an event-loop
// callback), or a spawned call (Spawn — `go f()` or any call inside a
// `go func(){...}` literal, which runs on a new goroutine).
//
// The builder also collects the package's struct tables — field types
// and map-typed field names — and the set of HTTP handler functions (any
// function with an http.ResponseWriter parameter), because the
// downstream analyzers all need the same syntactic inventory and it
// should be computed once.
package callgraph

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"unitdb/internal/lint/analysis"
)

// FuncID names one function declaration in the package: "New" for a
// package-level function, "Server.worker" for a method (pointer and
// value receivers are not distinguished — the repo never declares both).
type FuncID string

// MethodID forms the FuncID of typ's method name.
func MethodID(typ, name string) FuncID { return FuncID(typ + "." + name) }

// EdgeKind classifies the goroutine context of a call site.
type EdgeKind uint8

const (
	// Call is a plain call: the callee runs on the caller's goroutine
	// before the next statement.
	Call EdgeKind = iota
	// Closure is a call inside a function literal that is not spawned:
	// the callee runs whenever the closure is invoked, which may be the
	// same goroutine (event-loop callbacks) or another.
	Closure
	// Spawn is `go f()` or a call inside a `go func(){...}` literal: the
	// callee runs on a freshly spawned goroutine.
	Spawn
)

func (k EdgeKind) String() string {
	switch k {
	case Closure:
		return "closure"
	case Spawn:
		return "spawn"
	default:
		return "call"
	}
}

// Edge is one resolved call site.
type Edge struct {
	Caller FuncID
	Callee FuncID
	Kind   EdgeKind
	Pos    token.Pos
}

// Graph is the package call graph plus the struct tables every
// interprocedural analyzer needs.
type Graph struct {
	// Funcs maps every declared function or method with a body.
	Funcs map[FuncID]*ast.FuncDecl
	// Edges lists the resolved call sites in deterministic (file,
	// position) order.
	Edges []Edge
	// Callees indexes Edges by caller.
	Callees map[FuncID][]Edge
	// Callers indexes Edges by callee.
	Callers map[FuncID][]Edge

	// FieldTypes maps struct type → field name → the flattened field
	// type ("Store", "http.Request"; pointers are dereferenced). Only
	// fields whose type flattens to a name appear.
	FieldTypes map[string]map[string]string
	// MapFields is the set of field names declared with a map type
	// anywhere in the package's structs. Field names, not (type, field)
	// pairs: consumers use it to recognize `x.field` as a map when x's
	// type is not inferable, accepting the package-local collision risk.
	MapFields map[string]bool
	// PkgVars is the set of package-level variable names.
	PkgVars map[string]bool
	// Handlers marks functions with an http.ResponseWriter parameter —
	// HTTP handler entry points, which run on server goroutines.
	Handlers map[FuncID]bool

	// Interfaces maps each package-local interface type to its sorted
	// method names (embedded local interfaces flattened; an interface
	// embedding anything unresolvable — a cross-package type — is
	// omitted entirely, so devirtualization never matches a partial
	// method set).
	Interfaces map[string][]string
	// Implementers maps interface name → the sorted package-local
	// concrete types whose declared method set covers every interface
	// method (matched by name and arity).
	Implementers map[string][]string

	// bindings caches per-function identifier→type tables.
	bindings map[FuncID]map[string]string

	// ifaceMethods records, per interface, method name → arity
	// (parameter count, results count) for implementer matching.
	ifaceMethods map[string]map[string]arity
	// ifaceEmbeds records embedded type names per interface, resolved
	// (or rejected) in computeImplementers.
	ifaceEmbeds map[string][]string
	// funcVars accumulates function-value bindings per enclosing
	// function: identifier → every named function or method the package
	// ever binds to it (assignments and resolved call arguments).
	funcVars map[FuncID]map[string][]FuncID
	// fieldFuncs accumulates function-value bindings per struct field:
	// type → field → every function the package ever stores there.
	fieldFuncs map[string]map[string][]FuncID
}

// arity is the shape of a method used for implements-matching: the
// number of parameters and results (names and types are invisible to a
// syntactic pass, but a name+arity match is already a strong signal
// within one package).
type arity struct{ params, results int }

// Build constructs the graph for one package.
func Build(pkg *analysis.Package) *Graph {
	g := &Graph{
		Funcs:        map[FuncID]*ast.FuncDecl{},
		Callees:      map[FuncID][]Edge{},
		Callers:      map[FuncID][]Edge{},
		FieldTypes:   map[string]map[string]string{},
		MapFields:    map[string]bool{},
		PkgVars:      map[string]bool{},
		Handlers:     map[FuncID]bool{},
		Interfaces:   map[string][]string{},
		Implementers: map[string][]string{},
		bindings:     map[FuncID]map[string]string{},
		ifaceMethods: map[string]map[string]arity{},
		ifaceEmbeds:  map[string][]string{},
		funcVars:     map[FuncID]map[string][]FuncID{},
		fieldFuncs:   map[string]map[string][]FuncID{},
	}
	g.collectDecls(pkg)
	g.computeImplementers()
	g.collectFuncValues(pkg)
	for _, file := range pkg.Files {
		httpNames := analysis.ImportNames(file, "net/http")
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			id := DeclID(fd)
			if isHandler(fd, httpNames) {
				g.Handlers[id] = true
			}
			g.resolveCalls(id, fd)
		}
	}
	sort.SliceStable(g.Edges, func(i, j int) bool { return g.Edges[i].Pos < g.Edges[j].Pos })
	for _, e := range g.Edges {
		g.Callees[e.Caller] = append(g.Callees[e.Caller], e)
		g.Callers[e.Callee] = append(g.Callers[e.Callee], e)
	}
	return g
}

// DeclID names a function declaration.
func DeclID(fd *ast.FuncDecl) FuncID {
	if fd.Recv == nil {
		return FuncID(fd.Name.Name)
	}
	_, typ := ReceiverName(fd)
	if typ == "" {
		return FuncID("?." + fd.Name.Name)
	}
	return MethodID(typ, fd.Name.Name)
}

// ReceiverName returns a method's receiver identifier ("" when unnamed)
// and its named type, type parameters dropped ("" when not a named type).
func ReceiverName(fd *ast.FuncDecl) (recv, typ string) {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return "", ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	if !ok {
		return "", ""
	}
	if len(fd.Recv.List[0].Names) == 1 {
		return fd.Recv.List[0].Names[0].Name, id.Name
	}
	return "", id.Name
}

// collectDecls fills the function table and the struct/var inventories.
func (g *Graph) collectDecls(pkg *analysis.Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					g.Funcs[DeclID(d)] = d
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						if d.Tok == token.VAR {
							for _, n := range s.Names {
								g.PkgVars[n.Name] = true
							}
						}
					case *ast.TypeSpec:
						switch t := s.Type.(type) {
						case *ast.StructType:
							g.collectStruct(s.Name.Name, t)
						case *ast.InterfaceType:
							g.collectInterface(s.Name.Name, t)
						}
					}
				}
			}
		}
	}
}

func (g *Graph) collectStruct(typ string, st *ast.StructType) {
	for _, field := range st.Fields.List {
		if _, ok := field.Type.(*ast.MapType); ok {
			for _, n := range field.Names {
				g.MapFields[n.Name] = true
			}
			continue
		}
		ft := FlattenType(field.Type)
		if ft == "" {
			continue
		}
		m := g.FieldTypes[typ]
		if m == nil {
			m = map[string]string{}
			g.FieldTypes[typ] = m
		}
		for _, n := range field.Names {
			m[n.Name] = ft
		}
	}
}

// collectInterface records one package-local interface's explicit
// methods (with arity) and embedded type names.
func (g *Graph) collectInterface(name string, it *ast.InterfaceType) {
	methods := map[string]arity{}
	for _, m := range it.Methods.List {
		if len(m.Names) == 0 {
			// Embedded interface (or type-set term); resolved later.
			if en := FlattenType(m.Type); en != "" {
				g.ifaceEmbeds[name] = append(g.ifaceEmbeds[name], en)
			} else {
				// A type-set union or other construct we cannot name:
				// poison the interface so it never half-matches.
				g.ifaceEmbeds[name] = append(g.ifaceEmbeds[name], "?")
			}
			continue
		}
		ft, ok := m.Type.(*ast.FuncType)
		if !ok {
			continue
		}
		for _, n := range m.Names {
			methods[n.Name] = arity{params: fieldCount(ft.Params), results: fieldCount(ft.Results)}
		}
	}
	g.ifaceMethods[name] = methods
}

// fieldCount counts the identifiers a parameter/result list declares
// (grouped names each count; an unnamed field counts once).
func fieldCount(fl *ast.FieldList) int {
	if fl == nil {
		return 0
	}
	n := 0
	for _, f := range fl.List {
		if len(f.Names) == 0 {
			n++
		} else {
			n += len(f.Names)
		}
	}
	return n
}

// computeImplementers flattens embedded local interfaces and matches
// every package-local concrete type's declared method set against every
// interface. An interface embedding anything that is not a local
// interface is dropped: matching against a partial method set would
// claim implementers the real type system might reject.
func (g *Graph) computeImplementers() {
	// Resolve embeds transitively; detect the unresolvable.
	for name := range g.ifaceMethods {
		if !g.flattenEmbeds(name, map[string]bool{}) {
			delete(g.ifaceMethods, name)
		}
	}
	// Declared method sets of concrete receivers, from the function
	// table (methods with bodies — the only ones whose acquisitions the
	// analyzers can see anyway).
	methodSets := map[string]map[string]arity{}
	for id, fd := range g.Funcs {
		if fd.Recv == nil {
			continue
		}
		typ, method, ok := strings.Cut(string(id), ".")
		if !ok {
			continue
		}
		m := methodSets[typ]
		if m == nil {
			m = map[string]arity{}
			methodSets[typ] = m
		}
		m[method] = arity{params: fieldCount(fd.Type.Params), results: fieldCount(fd.Type.Results)}
	}
	for name, want := range g.ifaceMethods {
		if len(want) == 0 {
			// interface{} — nothing callable, nothing to devirtualize.
			continue
		}
		names := make([]string, 0, len(want))
		for m := range want {
			names = append(names, m)
		}
		sort.Strings(names)
		g.Interfaces[name] = names
		for typ, have := range methodSets {
			ok := true
			for m, a := range want {
				if have[m] != a {
					ok = false
					break
				}
			}
			if ok {
				g.Implementers[name] = append(g.Implementers[name], typ)
			}
		}
		sort.Strings(g.Implementers[name])
	}
}

// flattenEmbeds folds name's embedded local interfaces into its method
// map, reporting false when any embed cannot be resolved locally.
func (g *Graph) flattenEmbeds(name string, visiting map[string]bool) bool {
	if visiting[name] {
		return true // embed cycle; the parser allows it, methods already merged
	}
	visiting[name] = true
	for _, en := range g.ifaceEmbeds[name] {
		em, ok := g.ifaceMethods[en]
		if !ok {
			return false // "?", a cross-package name, or a non-interface
		}
		if !g.flattenEmbeds(en, visiting) {
			return false
		}
		for m, a := range em {
			g.ifaceMethods[name][m] = a
		}
	}
	g.ifaceEmbeds[name] = nil
	return true
}

// collectFuncValues accumulates the package's function-value bindings:
// named funcs and bound methods assigned to variables, stored into
// struct fields (by assignment or composite literal), or passed as
// arguments to resolved in-package calls. The tables only grow, and a
// binding discovered in one round can resolve calls that bind more
// parameters in the next, so collection iterates to a fixpoint.
func (g *Graph) collectFuncValues(pkg *analysis.Package) {
	for changed := true; changed; {
		changed = false
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if g.collectFuncValuesIn(DeclID(fd), fd.Body) {
					changed = true
				}
			}
		}
	}
}

func (g *Graph) collectFuncValuesIn(id FuncID, body *ast.BlockStmt) bool {
	changed := false
	bindVar := func(owner FuncID, name string, vals []FuncID) {
		if name == "" || name == "_" || len(vals) == 0 {
			return
		}
		m := g.funcVars[owner]
		if m == nil {
			m = map[string][]FuncID{}
			g.funcVars[owner] = m
		}
		if addFuncs(m, name, vals) {
			changed = true
		}
	}
	bindField := func(typ, field string, vals []FuncID) {
		if typ == "" || strings.Contains(typ, ".") || field == "" || len(vals) == 0 {
			return
		}
		m := g.fieldFuncs[typ]
		if m == nil {
			m = map[string][]FuncID{}
			g.fieldFuncs[typ] = m
		}
		if addFuncs(m, field, vals) {
			changed = true
		}
	}
	bindTarget := func(lhs ast.Expr, vals []FuncID) {
		switch lhs := lhs.(type) {
		case *ast.Ident:
			bindVar(id, lhs.Name, vals)
		case *ast.SelectorExpr:
			if x, ok := lhs.X.(*ast.Ident); ok {
				if typ, ok := g.Bindings(id)[x.Name]; ok {
					bindField(typ, lhs.Sel.Name, vals)
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				bindTarget(lhs, g.FuncValues(id, n.Rhs[i]))
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					bindVar(id, name.Name, g.FuncValues(id, n.Values[i]))
				}
			}
		case *ast.CompositeLit:
			typ := FlattenType(n.Type)
			for _, el := range n.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				bindField(typ, key.Name, g.FuncValues(id, kv.Value))
			}
		case *ast.CallExpr:
			for _, callee := range g.ResolveAll(id, n) {
				fd := g.Funcs[callee]
				if fd == nil {
					continue
				}
				for i, arg := range n.Args {
					vals := g.FuncValues(id, arg)
					if len(vals) == 0 {
						continue
					}
					if name := paramName(fd, i); name != "" {
						bindVar(callee, name, vals)
					}
				}
			}
		}
		return true
	})
	return changed
}

// addFuncs merges vals into m[name] keeping the slice sorted and
// deduplicated; it reports whether anything new arrived.
func addFuncs(m map[string][]FuncID, name string, vals []FuncID) bool {
	have := m[name]
	set := map[FuncID]bool{}
	for _, f := range have {
		set[f] = true
	}
	added := false
	for _, f := range vals {
		if !set[f] {
			set[f] = true
			added = true
		}
	}
	if !added {
		return false
	}
	out := make([]FuncID, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	m[name] = out
	return true
}

// paramName returns the name of fd's i-th parameter (grouped names
// expanded), or "" when it is unnamed or out of range.
func paramName(fd *ast.FuncDecl, i int) string {
	if fd.Type.Params == nil {
		return ""
	}
	idx := 0
	for _, p := range fd.Type.Params.List {
		n := len(p.Names)
		if n == 0 {
			n = 1
		}
		if i < idx+n {
			if len(p.Names) == 0 {
				return ""
			}
			name := p.Names[i-idx].Name
			if name == "_" {
				return ""
			}
			return name
		}
		idx += n
	}
	return ""
}

// FuncValues returns the named package functions and bound methods
// expression e evidently denotes as a value: `helper` for a package
// function, `x.m` for a method of x's evident type (fanning out through
// a local interface's implementers). Anything else — literals, calls,
// composite expressions — yields nothing.
func (g *Graph) FuncValues(fn FuncID, e ast.Expr) []FuncID {
	switch e := e.(type) {
	case *ast.Ident:
		if fd, ok := g.Funcs[FuncID(e.Name)]; ok && fd.Recv == nil {
			return []FuncID{FuncID(e.Name)}
		}
	case *ast.SelectorExpr:
		x, ok := e.X.(*ast.Ident)
		if !ok {
			return nil
		}
		typ, ok := g.Bindings(fn)[x.Name]
		if !ok {
			return nil
		}
		if m := MethodID(typ, e.Sel.Name); g.Funcs[m] != nil {
			return []FuncID{m}
		}
		var out []FuncID
		for _, impl := range g.Implementers[typ] {
			if m := MethodID(impl, e.Sel.Name); g.Funcs[m] != nil {
				out = append(out, m)
			}
		}
		return out
	}
	return nil
}

// FlattenType renders a type expression as a dotted name: "T", "pkg.T"
// (pointers dereferenced, generic instantiations stripped), or "" for
// composite types.
func FlattenType(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return FlattenType(t.X)
	case *ast.SelectorExpr:
		base := FlattenType(t.X)
		if base == "" {
			return ""
		}
		return base + "." + t.Sel.Name
	case *ast.IndexExpr:
		return FlattenType(t.X)
	default:
		return ""
	}
}

// isHandler reports whether fd takes an http.ResponseWriter parameter.
// The literal spelling "http.ResponseWriter" is accepted even without a
// net/http import table so in-memory mutation tests parse standalone.
func isHandler(fd *ast.FuncDecl, httpNames []string) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, p := range fd.Type.Params.List {
		ft := FlattenType(p.Type)
		pkg, name, ok := strings.Cut(ft, ".")
		if !ok || name != "ResponseWriter" {
			continue
		}
		if pkg == "http" {
			return true
		}
		for _, n := range httpNames {
			if pkg == n {
				return true
			}
		}
	}
	return false
}

// Bindings returns fd's identifier→type table: the receiver, every
// parameter of named type, and every local whose type is syntactically
// evident (var x T; x := T{...}; x := &T{...}; x := new(T)). The table
// is flow-insensitive — later bindings win nothing, the first named
// binding for an identifier sticks — which over-approximates shadowing
// but is stable and cheap.
func (g *Graph) Bindings(id FuncID) map[string]string {
	if b, ok := g.bindings[id]; ok {
		return b
	}
	fd := g.Funcs[id]
	b := map[string]string{}
	if fd != nil {
		if recv, typ := ReceiverName(fd); recv != "" && recv != "_" {
			b[recv] = typ
		}
		if fd.Type.Params != nil {
			for _, p := range fd.Type.Params.List {
				if ft := FlattenType(p.Type); ft != "" {
					for _, n := range p.Names {
						bindFirst(b, n.Name, ft)
					}
				}
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || i >= len(n.Rhs) || len(n.Rhs) != len(n.Lhs) {
						continue
					}
					if t := literalType(n.Rhs[i]); t != "" {
						bindFirst(b, id.Name, t)
					}
				}
			case *ast.ValueSpec:
				if t := FlattenType(n.Type); t != "" {
					for _, name := range n.Names {
						bindFirst(b, name.Name, t)
					}
				}
			}
			return true
		})
	}
	g.bindings[id] = b
	return b
}

func bindFirst(b map[string]string, name, typ string) {
	if name == "_" {
		return
	}
	if _, ok := b[name]; !ok {
		b[name] = typ
	}
}

// literalType extracts the named type a value expression evidently
// constructs: T{...}, &T{...}, new(T).
func literalType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return literalType(e.X)
		}
	case *ast.CompositeLit:
		return FlattenType(e.Type)
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "new" && len(e.Args) == 1 {
			return FlattenType(e.Args[0])
		}
	}
	return ""
}

// Resolve maps one call expression inside function id to its callee
// when the syntax pins it down to exactly one function. ok is false for
// unresolved calls and for devirtualized calls with several candidates;
// consumers that can handle fan-out should use ResolveAll.
func (g *Graph) Resolve(id FuncID, call *ast.CallExpr) (FuncID, bool) {
	all := g.ResolveAll(id, call)
	if len(all) == 1 {
		return all[0], true
	}
	return "", false
}

// ResolveAll maps one call expression inside function id to every
// callee the syntax shows it can reach: exactly one for a direct call,
// one per implementing type for a devirtualized interface call, one per
// bound function for a call through a function-valued variable or
// field. The slice is sorted and empty for unresolved calls.
func (g *Graph) ResolveAll(id FuncID, call *ast.CallExpr) []FuncID {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		callee := FuncID(fun.Name)
		if fd, ok := g.Funcs[callee]; ok && fd.Recv == nil {
			return []FuncID{callee}
		}
		// A call through a function-valued variable or parameter:
		// every named function the package ever binds to it.
		return g.funcVars[id][fun.Name]
	case *ast.SelectorExpr:
		b := g.Bindings(id)
		switch x := fun.X.(type) {
		case *ast.Ident:
			if typ, ok := b[x.Name]; ok {
				return g.methodTargets(typ, fun.Sel.Name)
			}
		case *ast.SelectorExpr:
			// One level of field indirection: base.field.Method() or a
			// call through a function-valued field base.field.cb().
			base, ok := x.X.(*ast.Ident)
			if !ok {
				break
			}
			typ, ok := b[base.Name]
			if !ok {
				break
			}
			ft, ok := g.FieldTypes[typ][x.Sel.Name]
			if !ok || strings.Contains(ft, ".") {
				break
			}
			return g.methodTargets(ft, fun.Sel.Name)
		}
	}
	return nil
}

// methodTargets resolves a method-shaped call typ.name: the concrete
// method if typ declares one, otherwise the interface fan-out if typ is
// a local interface, otherwise any functions bound to a func-valued
// field typ.name.
func (g *Graph) methodTargets(typ, name string) []FuncID {
	if callee := MethodID(typ, name); g.Funcs[callee] != nil {
		return []FuncID{callee}
	}
	if impls, ok := g.Implementers[typ]; ok {
		var out []FuncID
		for _, impl := range impls {
			if m := MethodID(impl, name); g.Funcs[m] != nil {
				out = append(out, m)
			}
		}
		if len(out) > 0 {
			return out
		}
	}
	return g.fieldFuncs[typ][name]
}

// resolveCalls walks fd's body recording resolved edges with their
// goroutine-context kind.
func (g *Graph) resolveCalls(id FuncID, fd *ast.FuncDecl) {
	var walk func(n ast.Node, kind EdgeKind)
	walk = func(n ast.Node, kind EdgeKind) {
		ast.Inspect(n, func(c ast.Node) bool {
			switch c := c.(type) {
			case *ast.GoStmt:
				if lit, ok := c.Call.Fun.(*ast.FuncLit); ok {
					walk(lit.Body, Spawn)
				} else {
					for _, callee := range g.ResolveAll(id, c.Call) {
						g.Edges = append(g.Edges, Edge{Caller: id, Callee: callee, Kind: Spawn, Pos: c.Call.Pos()})
					}
				}
				// Argument expressions evaluate on the caller's goroutine,
				// but any call among them is vanishingly rare; skip the
				// subtree rather than misclassify the spawned call itself.
				return false
			case *ast.FuncLit:
				next := Closure
				if kind == Spawn {
					next = Spawn
				}
				walk(c.Body, next)
				return false
			case *ast.CallExpr:
				for _, callee := range g.ResolveAll(id, c) {
					g.Edges = append(g.Edges, Edge{Caller: id, Callee: callee, Kind: kind, Pos: c.Pos()})
				}
			}
			return true
		})
	}
	walk(fd.Body, Call)
}

// Reachable returns every function reachable from the roots over edges
// whose kind passes keep (the roots themselves included). Traversal
// order is deterministic.
func (g *Graph) Reachable(roots []FuncID, keep func(EdgeKind) bool) map[FuncID]bool {
	seen := map[FuncID]bool{}
	queue := append([]FuncID(nil), roots...)
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		if seen[f] {
			continue
		}
		seen[f] = true
		for _, e := range g.Callees[f] {
			if keep(e.Kind) && !seen[e.Callee] {
				queue = append(queue, e.Callee)
			}
		}
	}
	return seen
}
