// Package guardedflow enforces the lock annotation on concurrent
// structs. A struct field whose doc or trailing comment contains
// "guarded by <mutex>" (case-insensitive) names the sibling mutex field
// that must be held whenever the field is read or written:
//
//	mu    sync.Mutex
//	queue queryHeap // guarded by mu
//
// Every access of such a field through a method receiver must happen at
// a program point where the lockstate lattice proves the mutex held
// (write- or read-locked on every path reaching the access), or inside a
// method whose name ends in "Locked" (which is analyzed with the mutex
// assumed held at entry — and still checked, so a *Locked method that
// releases early is caught). That catches the access moved past the
// unlock, the branch that releases before touching the field, the method
// that holds the wrong mutex, and the *Locked helper that drops the
// caller's lock.
//
// A function literal runs at call time under its call site's lock
// regime — the server's dequeue closure, for example, runs under the
// mutex of three different call sites — so the flow at its definition
// proves nothing. Accesses inside one are judged by a weaker rule: the
// enclosing method must call recv.<mutex>.Lock() or RLock() somewhere,
// or be a *Locked method. A closure in a method that never locks is a
// finding; `go test -race` covers the rest of the dynamics.
//
// Only accesses spelled through the method receiver are checked (aliases
// are out of syntactic reach), and plain functions and constructors are
// exempt (the struct has not escaped yet).
package guardedflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strings"

	"unitdb/internal/lint/analysis"
	"unitdb/internal/lint/cfg"
	"unitdb/internal/lint/dataflow"
	"unitdb/internal/lint/lockstate"
)

// Analyzer is the guardedflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "guardedflow",
	Doc:  "guarded-field accesses must occur where the mutex is provably held",
	Run:  run,
}

var guardRE = regexp.MustCompile(`(?i)guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// collectGuards maps struct name → field name → guarding mutex field
// name over the package's annotated fields.
func collectGuards(files []*ast.File) map[string]map[string]string {
	g := map[string]map[string]string{}
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
				mutex := guardAnnotation(field)
				if mutex == "" {
					continue
				}
				m := g[ts.Name.Name]
				if m == nil {
					m = map[string]string{}
					g[ts.Name.Name] = m
				}
				for _, name := range field.Names {
					m[name.Name] = mutex
				}
			}
			return true
		})
	}
	return g
}

// guardAnnotation extracts the mutex name from a field's doc or trailing
// comment, or returns "".
func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardRE.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

func run(pass *analysis.Pass) error {
	g := collectGuards(pass.Pkg.Files)
	if len(g) == 0 {
		return nil
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			recv, typ := receiverName(fd)
			if recv == "" || recv == "_" || len(g[typ]) == 0 {
				continue
			}
			checkMethod(pass, fd, recv, typ, g[typ])
		}
	}
	return nil
}

// checkMethod runs the lockstate fixpoint over one method and reports
// every guarded-field access at a point where the mutex is not provably
// held; function-literal bodies go to checkClosures. fields maps field
// name → guarding mutex name.
func checkMethod(pass *analysis.Pass, fd *ast.FuncDecl, recv, typ string, fields map[string]string) {
	locked := strings.HasSuffix(fd.Name.Name, "Locked")
	if !locked {
		checkClosures(pass, fd, recv, typ, fields)
	}
	entry := lockstate.Fact{}
	if locked {
		// The caller holds every guarding mutex of the struct; the method
		// body is still checked under that assumption.
		for _, mutex := range fields {
			entry[recv+"."+mutex] = lockstate.Set(0).Add(lockstate.PathState{Mode: lockstate.Locked})
		}
	}
	g := cfg.New(fd.Body)
	res := dataflow.Solve(g, &dataflow.Analysis{
		Entry:    entry,
		Join:     lockstate.Join,
		Transfer: lockstate.Transfer,
	})

	seen := map[string]bool{}
	for _, b := range g.Blocks {
		in := res.In[b.Index]
		if in == nil {
			continue // unreachable
		}
		fact := in.(lockstate.Fact)
		for _, node := range b.Nodes {
			checkAccesses(pass, node, fact, fd, recv, typ, fields, seen)
			// Advance the lock state past this node's own operations;
			// bad transitions are locksafe's findings, not ours.
			fact = lockstate.Transfer(node, fact).(lockstate.Fact)
		}
	}
}

// checkAccesses reports unguarded recv.field accesses within one node,
// judged against the lock state at the node's entry.
func checkAccesses(pass *analysis.Pass, node ast.Node, fact lockstate.Fact,
	fd *ast.FuncDecl, recv, typ string, fields map[string]string, seen map[string]bool) {
	cfg.Walk(node, func(c ast.Node) bool {
		sel, mutex := guardedAccess(c, recv, fields)
		if sel == nil || lockstate.Held(fact, recv+"."+mutex) {
			return true
		}
		key := fmt.Sprintf("%v|%s", sel.Pos(), sel.Sel.Name)
		if seen[key] {
			return true
		}
		seen[key] = true
		report(pass, sel.Pos(), recv, sel.Sel.Name, mutex, typ, fd.Name.Name)
		return true
	})
}

// checkClosures judges the guarded accesses inside fd's function
// literals, nested ones included: each needs a recv.<mutex>.Lock() or
// RLock() call somewhere in fd.
func checkClosures(pass *analysis.Pass, fd *ast.FuncDecl, recv, typ string, fields map[string]string) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(c ast.Node) bool {
			sel, mutex := guardedAccess(c, recv, fields)
			if sel != nil && !locksSomewhere(fd.Body, recv+"."+mutex) {
				pass.Reportf(sel.Pos(),
					"%s.%s is guarded by %q but method %s.%s never locks %s.%s (access inside a function literal; suffix the name with Locked if the caller holds it)",
					recv, sel.Sel.Name, mutex, typ, fd.Name.Name, recv, mutex)
			}
			return true
		})
		return false
	})
}

// guardedAccess returns n as a recv.field selector of a guarded field,
// with the field's mutex, or nil.
func guardedAccess(n ast.Node, recv string, fields map[string]string) (*ast.SelectorExpr, string) {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	if id, ok := sel.X.(*ast.Ident); !ok || id.Name != recv {
		return nil, ""
	}
	mutex, guarded := fields[sel.Sel.Name]
	if !guarded {
		return nil, ""
	}
	return sel, mutex
}

// locksSomewhere reports whether body, closures included, calls
// key.Lock() or key.RLock().
func locksSomewhere(body *ast.BlockStmt, key string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			sel, ok := call.Fun.(*ast.SelectorExpr)
			found = found || ok && (sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock") && lockstate.Flatten(sel.X) == key
		}
		return !found
	})
	return found
}

// receiverName returns a method's receiver identifier ("" when unnamed)
// and its named type, type parameters dropped ("" when not a named type).
func receiverName(fd *ast.FuncDecl) (recv, typ string) {
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

func report(pass *analysis.Pass, pos token.Pos, recv, field, mutex, typ, method string) {
	pass.Reportf(pos,
		"%s.%s is guarded by %q but %s.%s is not provably held here (method %s.%s; suffix the name with Locked if the caller holds it)",
		recv, field, mutex, recv, mutex, typ, method)
}
