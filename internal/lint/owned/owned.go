// Package owned checks the single-goroutine ownership convention the
// engine's event loop relies on, interprocedurally. A struct field
// whose comment contains "owned by <method>" names the method whose
// goroutine owns the field:
//
//	nextID int64 // owned by Run
//
// The rule: an owned field must never be touched from a context that
// provably runs on a different goroutine than the owner's loop. Three
// contexts are provable from the call graph:
//
//   - code inside a `go func(){...}` literal (a spawned goroutine,
//     wherever it is written — even inside the owner itself);
//   - functions reachable (over plain and closure call edges) from a
//     function the package spawns with a go statement, unless the
//     spawned function is the owner itself (`go e.Run()` starts the
//     owning goroutine, it does not violate it);
//   - HTTP handlers (any function with an http.ResponseWriter
//     parameter) and functions reachable from them — handlers run on
//     net/http's server goroutines.
//
// Everything else is unknown and allowed: an accessor method that the
// package never calls from a spawned context may well be invoked
// cross-package on the owner's goroutine (the engine's Policy
// callbacks are exactly that), and a syntactic analysis cannot see
// those callers. Like the rest of the interprocedural layer, owned
// under-approximates: it reports only accesses whose wrong-goroutine
// context is visible in this package's syntax.
package owned

import (
	"go/ast"
	"regexp"
	"sort"

	"unitdb/internal/lint/analysis"
	"unitdb/internal/lint/callgraph"
	"unitdb/internal/lint/summary"
)

// Analyzer is the owned pass.
var Analyzer = &analysis.Analyzer{
	Name: "owned",
	Doc:  "'// owned by <method>' fields are never touched from spawned goroutines or HTTP handlers",
	Run:  run,
}

var ownedRE = regexp.MustCompile(`(?i)owned by ([A-Za-z_][A-Za-z0-9_]*)`)

// Owned maps struct type → field name → owning method name.
type Owned map[string]map[string]string

// CollectOwned finds "owned by" annotated fields across the package.
// Channel-typed fields are excluded: for a channel, "owned by" names
// who may close it, not who may communicate over it — receives from a
// quit channel inside the very goroutines it stops are the normal
// pattern, not a violation.
func CollectOwned(files []*ast.File) Owned {
	o := Owned{}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if _, isChan := field.Type.(*ast.ChanType); isChan {
					continue
				}
				owner := ownerAnnotation(field)
				if owner == "" {
					continue
				}
				m := o[ts.Name.Name]
				if m == nil {
					m = map[string]string{}
					o[ts.Name.Name] = m
				}
				for _, name := range field.Names {
					m[name.Name] = owner
				}
			}
			return true
		})
	}
	return o
}

// ownerAnnotation extracts the "owned by <name>" owner from a struct
// field's doc or trailing comment ("" when unannotated).
func ownerAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := ownedRE.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

func run(pass *analysis.Pass) error {
	owned := CollectOwned(pass.Pkg.Files)
	if len(owned) == 0 {
		return nil
	}
	sum := summary.Of(pass.Pkg)
	g := sum.Graph

	// Reachability from each provably-foreign root, over edges that stay
	// on the root's goroutine (plain calls and closures).
	sameGoroutine := func(k callgraph.EdgeKind) bool {
		return k == callgraph.Call || k == callgraph.Closure
	}
	var handlerRoots []callgraph.FuncID
	for fn := range g.Handlers {
		handlerRoots = append(handlerRoots, fn)
	}
	fromHandlers := g.Reachable(handlerRoots, sameGoroutine)

	spawnReach := map[callgraph.FuncID]map[callgraph.FuncID]bool{}
	var spawnRoots []callgraph.FuncID // deterministic report order
	for _, e := range g.Edges {
		if e.Kind != callgraph.Spawn {
			continue
		}
		if _, ok := spawnReach[e.Callee]; !ok {
			spawnReach[e.Callee] = g.Reachable([]callgraph.FuncID{e.Callee}, sameGoroutine)
			spawnRoots = append(spawnRoots, e.Callee)
		}
	}
	sort.Slice(spawnRoots, func(i, j int) bool { return spawnRoots[i] < spawnRoots[j] })

	c := &checker{pass: pass, g: g, owned: owned, fromHandlers: fromHandlers,
		spawnReach: spawnReach, spawnRoots: spawnRoots}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkFunc(fd)
		}
	}
	return nil
}

type checker struct {
	pass         *analysis.Pass
	g            *callgraph.Graph
	owned        Owned
	fromHandlers map[callgraph.FuncID]bool
	spawnReach   map[callgraph.FuncID]map[callgraph.FuncID]bool
	spawnRoots   []callgraph.FuncID
}

// checkFunc walks fd's body; accesses inside go-statement literals are
// always foreign, accesses elsewhere are judged by fd's reachability
// from foreign roots.
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	fn := callgraph.DeclID(fd)
	var walk func(n ast.Node, inSpawnedLit bool)
	walk = func(n ast.Node, inSpawnedLit bool) {
		ast.Inspect(n, func(node ast.Node) bool {
			switch node := node.(type) {
			case *ast.GoStmt:
				if lit, ok := node.Call.Fun.(*ast.FuncLit); ok {
					walk(lit.Body, true)
					return false
				}
				return true
			case *ast.FuncLit:
				walk(node.Body, inSpawnedLit)
				return false
			case *ast.SelectorExpr:
				c.checkAccess(fn, node, inSpawnedLit)
			}
			return true
		})
	}
	walk(fd.Body, false)
}

// checkAccess judges one x.field selector.
func (c *checker) checkAccess(fn callgraph.FuncID, sel *ast.SelectorExpr, inSpawnedLit bool) {
	base, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	typ, ok := c.g.Bindings(fn)[base.Name]
	if !ok {
		return
	}
	owner, ok := c.owned[typ][sel.Sel.Name]
	if !ok {
		return
	}
	ownerID := callgraph.MethodID(typ, owner)
	if inSpawnedLit {
		c.pass.Reportf(sel.Pos(),
			"%s.%s is owned by the %s.%s goroutine but is touched inside a go statement's function literal",
			base.Name, sel.Sel.Name, typ, owner)
		return
	}
	if c.fromHandlers[fn] {
		c.pass.Reportf(sel.Pos(),
			"%s.%s is owned by the %s.%s goroutine but %s runs on an HTTP handler goroutine",
			base.Name, sel.Sel.Name, typ, owner, fn)
		return
	}
	for _, root := range c.spawnRoots {
		if root == ownerID || !c.spawnReach[root][fn] {
			continue
		}
		c.pass.Reportf(sel.Pos(),
			"%s.%s is owned by the %s.%s goroutine but %s is reachable from spawned goroutine %s",
			base.Name, sel.Sel.Name, typ, owner, fn, root)
		return
	}
}
