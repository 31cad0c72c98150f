// Package outcomeonce enforces the USM conservation law from the paper:
// every admitted query ends in exactly one terminal outcome (success,
// rejected, DMF, or DSF). The engine and server uphold that law through a
// handful of finalize functions; this analyzer proves, per function, that
// every control-flow path either records exactly one outcome for the
// transaction it owns or provably hands ownership off.
//
// Ownership is declared with a directive in the function's doc comment:
//
//	//unitlint:outcome q
//
// names the expression (a dotted identifier chain: q, tx, q.tx) whose
// transaction this function must resolve. The analyzer then runs a
// forward dataflow over the function's CFG with a per-key state set:
//
//	live     — bound on this path and still owing exactly one outcome
//	final    — an outcome was recorded on this path
//	kept     — ownership was handed off (pushed to a queue, stored in a
//	           composite literal, or captured by a closure)
//	resolved — an Outcome guard proved someone else already finalized it
//
// Recording an outcome means calling a finalize*-named function with the
// key (or its address) as first argument, or assigning a non-Pending value to
// <key>.Outcome. Assigning OutcomePending re-arms the obligation.
// Conditions of the form <key>.Outcome ==/!= ...OutcomePending refine the
// state edge-sensitively: the pending edge owes an outcome, the other
// edge is resolved. Rebinding the key's base identifier (assignment or a
// range clause) starts a fresh obligation, and a loop that rebinds per
// iteration must settle each binding before the back edge.
//
// Findings: a path reaching return with the key live (dropped outcome), a
// loop iteration ending with the key live (dropped in a worker loop), a
// finalize on a possibly-already-final state (double finalize), and — so
// new finalize call sites cannot dodge the law — any function that
// records outcomes without carrying a directive. Test files are exempt;
// tests drive internals deliberately.
package outcomeonce

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"

	"unitdb/internal/lint/analysis"
	"unitdb/internal/lint/cfg"
	"unitdb/internal/lint/dataflow"
	"unitdb/internal/lint/lockstate"
)

// Analyzer is the outcomeonce pass.
var Analyzer = &analysis.Analyzer{
	Name: "outcomeonce",
	Doc:  "every path records exactly one terminal transaction outcome or hands the transaction off",
	Run:  run,
}

const directive = "//unitlint:outcome"

// Per-key path states. A key absent from the fact is unbound.
const (
	live     uint8 = 1 << iota // owes exactly one outcome
	final                      // outcome recorded
	kept                       // ownership handed off
	resolved                   // proven finalized elsewhere
)

// fact maps tracked key → set of path states (bitmask). Implements
// dataflow.Fact. An absent key and a zero set are equivalent.
type fact map[string]uint8

func (f fact) Equal(other dataflow.Fact) bool {
	o, ok := other.(fact)
	if !ok {
		return false
	}
	for k, v := range f {
		if o[k] != v {
			return false
		}
	}
	for k, v := range o {
		if f[k] != v {
			return false
		}
	}
	return true
}

func (f fact) clone() fact {
	c := make(fact, len(f))
	for k, v := range f {
		c[k] = v
	}
	return c
}

func join(a, b dataflow.Fact) dataflow.Fact {
	fa, fb := a.(fact), b.(fact)
	out := fa.clone()
	for k, v := range fb {
		out[k] |= v
	}
	return out
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Pkg.Files {
		if strings.HasSuffix(pass.Pkg.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			keys := directives(fd)
			if len(keys) == 0 {
				if pos, found := findsFinalize(fd.Body); found {
					pass.Reportf(pos,
						"%s records a transaction outcome but has no %s directive naming the transaction it resolves",
						fd.Name.Name, directive)
				}
				continue
			}
			checkFunc(pass, fd, keys)
		}
	}
	return nil
}

// directives returns the keys named by //unitlint:outcome lines in the
// function's doc comment.
func directives(fd *ast.FuncDecl) []string {
	if fd.Doc == nil {
		return nil
	}
	var keys []string
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(c.Text)
		if !strings.HasPrefix(text, directive) {
			continue
		}
		rest := strings.TrimSpace(strings.TrimPrefix(text, directive))
		if rest != "" {
			keys = append(keys, strings.Fields(rest)[0])
		}
	}
	return keys
}

// findsFinalize scans a body (closures included) for an outcome-recording
// operation: a finalize*-named call or a non-Pending assignment to an
// .Outcome field. Returns the first one's position.
func findsFinalize(body *ast.BlockStmt) (token.Pos, bool) {
	var pos token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if pos != token.NoPos {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if strings.HasPrefix(calleeName(n), "finalize") {
				pos = n.Pos()
				return false
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Outcome" || i >= len(n.Rhs) {
					continue
				}
				if !strings.HasSuffix(lockstate.Flatten(n.Rhs[i]), "OutcomePending") {
					pos = n.Pos()
					return false
				}
			}
		}
		return true
	})
	return pos, pos != token.NoPos
}

// argKey flattens a call argument naming a transaction: the key itself,
// or its address when the driver embeds the transaction by value (&q.tx).
func argKey(e ast.Expr) string {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	return lockstate.Flatten(e)
}

func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// loopInfo describes one CFG loop for retreating-edge handling.
type loopInfo struct {
	body  map[int]bool    // block indices inside the loop
	kills map[string]bool // tracked keys rebound inside the body
}

// checker carries the per-function analysis state.
type checker struct {
	pass  *analysis.Pass
	fd    *ast.FuncDecl
	keys  []string          // tracked keys (dotted chains)
	base  map[string]string // key → base identifier
	loops map[*cfg.Block]*loopInfo
	seen  map[string]bool // report dedupe
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, keys []string) {
	c := &checker{
		pass: pass,
		fd:   fd,
		keys: keys,
		base: make(map[string]string, len(keys)),
		seen: map[string]bool{},
	}
	for _, k := range keys {
		c.base[k] = k
		if i := strings.IndexByte(k, '.'); i >= 0 {
			c.base[k] = k[:i]
		}
	}

	g := cfg.New(fd.Body)
	c.loops = make(map[*cfg.Block]*loopInfo, len(g.Loops))
	for _, l := range g.Loops {
		li := &loopInfo{body: map[int]bool{}, kills: map[string]bool{}}
		for _, b := range l.Body {
			li.body[b.Index] = true
			for _, node := range b.Nodes {
				for _, k := range keys {
					if c.killsBase(node, c.base[k]) {
						li.kills[k] = true
					}
				}
			}
		}
		c.loops[l.Head] = li
	}

	entry := fact{}
	params := map[string]bool{}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			params[name.Name] = true
		}
	}
	for _, k := range keys {
		if params[c.base[k]] {
			entry[k] = live
		}
	}

	res := dataflow.Solve(g, &dataflow.Analysis{
		Entry: entry,
		Join:  join,
		Transfer: func(n ast.Node, f dataflow.Fact) dataflow.Fact {
			return c.apply(n, f.(fact).clone(), nil)
		},
		EdgeTransfer: func(from *cfg.Block, succIdx int, f dataflow.Fact) dataflow.Fact {
			return c.edge(from, succIdx, f.(fact))
		},
	})

	// Replay reachable blocks to place double-finalize reports.
	for _, b := range g.Blocks {
		in := res.In[b.Index]
		if in == nil {
			if b.Index != 0 {
				continue
			}
			in = entry
		}
		f := in.(fact).clone()
		for _, node := range b.Nodes {
			f = c.apply(node, f, func(pos token.Pos, key string) {
				c.report(pos, "%s may already have a recorded outcome here (outcome recorded twice on some path)", key)
			})
		}
	}

	// A path reaching return with a key still live dropped its outcome.
	for _, b := range g.Blocks {
		if !b.Exits || b.Panic || res.Out[b.Index] == nil {
			continue
		}
		out := res.Out[b.Index].(fact)
		for _, k := range keys {
			if out[k]&live != 0 {
				c.report(c.exitPos(b), "%s may reach this return with its outcome unrecorded (record exactly one outcome or hand the transaction off)", k)
			}
		}
	}

	// A back edge carrying live for a key the loop rebinds per iteration
	// means one iteration finished without settling its binding.
	for _, l := range g.Loops {
		li := c.loops[l.Head]
		for _, b := range l.Body {
			if res.Out[b.Index] == nil || !hasSucc(b, l.Head) {
				continue
			}
			out := res.Out[b.Index].(fact)
			for _, k := range keys {
				if li.kills[k] && out[k]&live != 0 {
					c.report(c.lastPos(b, l), "%s may finish this loop iteration with its outcome unrecorded", k)
				}
			}
		}
	}
}

func hasSucc(b, target *cfg.Block) bool {
	for _, s := range b.Succs {
		if s == target {
			return true
		}
	}
	return false
}

func (c *checker) exitPos(b *cfg.Block) token.Pos {
	if n := len(b.Nodes); n > 0 {
		if ret, ok := b.Nodes[n-1].(*ast.ReturnStmt); ok {
			return ret.Pos()
		}
	}
	return c.fd.Body.Rbrace
}

func (c *checker) lastPos(b *cfg.Block, l cfg.Loop) token.Pos {
	if n := len(b.Nodes); n > 0 {
		return b.Nodes[n-1].Pos()
	}
	if len(l.Head.Nodes) > 0 {
		return l.Head.Nodes[0].Pos()
	}
	return c.fd.Body.Rbrace
}

func (c *checker) report(pos token.Pos, format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	dedupe := fmt.Sprintf("%v|%s", pos, msg)
	if c.seen[dedupe] {
		return
	}
	c.seen[dedupe] = true
	c.pass.Reportf(pos, "%s", msg)
}

// apply advances the fact over one node's operations, in source order,
// with rebindings applied last. report, when non-nil, receives
// double-finalize positions (the replay pass); Solve passes nil.
func (c *checker) apply(n ast.Node, f fact, report func(token.Pos, string)) fact {
	for _, k := range c.keys {
		base := c.base[k]
		finals, keeps, rearm := c.nodeOps(n, k, base)
		for _, pos := range finals {
			if report != nil && f[k]&final != 0 {
				report(pos, k)
			}
			f[k] = final
		}
		if keeps > 0 && f[k]&live != 0 {
			f[k] = (f[k] &^ live) | kept
		}
		if rearm {
			f[k] = live
		}
		if c.killsBase(n, base) {
			f[k] = live
		}
	}
	return f
}

// nodeOps collects one node's finalize positions, keep count, and re-arm
// flag for one key. Closure bodies are not entered (a captured key is a
// keep, not a sequence of ops on this path).
func (c *checker) nodeOps(n ast.Node, key, base string) (finals []token.Pos, keeps int, rearm bool) {
	cfg.Walk(n, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			name := calleeName(node)
			if strings.HasPrefix(name, "finalize") && len(node.Args) > 0 &&
				argKey(node.Args[0]) == key {
				finals = append(finals, node.Pos())
			}
			if name == "Push" {
				for _, arg := range node.Args {
					if flat := argKey(arg); flat == key || flat == base {
						keeps++
						break
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range node.Lhs {
				if lockstate.Flatten(lhs) != key+".Outcome" || i >= len(node.Rhs) {
					continue
				}
				if strings.HasSuffix(lockstate.Flatten(node.Rhs[i]), "OutcomePending") {
					rearm = true
				} else {
					finals = append(finals, node.Pos())
				}
			}
		case *ast.CompositeLit:
			if mentionsIdent(node, base) {
				keeps++
			}
			return false // elements already scanned by mentionsIdent
		case *ast.FuncLit:
			if mentionsIdent(node.Body, base) {
				keeps++
			}
		}
		return true
	})
	return finals, keeps, rearm
}

func mentionsIdent(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// killsBase reports whether the node rebinds the key's base identifier:
// an assignment with the bare identifier on the left, or a range clause
// binding it per iteration (the synthetic RangeBind node).
func (c *checker) killsBase(n ast.Node, base string) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name == base {
				return true
			}
		}
	case *cfg.RangeBind:
		for _, e := range []ast.Expr{n.Range.Key, n.Range.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name == base {
				return true
			}
		}
	}
	return false
}

// edge refines the fact along one CFG edge: retreating edges into a loop
// that rebinds a key drop the key (each iteration owes independently, and
// the rebind restarts the obligation), and Outcome-pending guards
// partition the state between their branches.
func (c *checker) edge(from *cfg.Block, succIdx int, f fact) dataflow.Fact {
	to := from.Succs[succIdx]
	out := f
	copied := false
	mutate := func() fact {
		if !copied {
			out = out.clone()
			copied = true
		}
		return out
	}

	if li, ok := c.loops[to]; ok && li.body[from.Index] {
		for k := range li.kills {
			if _, bound := out[k]; bound {
				delete(mutate(), k)
			}
		}
	}

	if cond, ok := from.Cond.(*ast.BinaryExpr); ok &&
		(cond.Op == token.EQL || cond.Op == token.NEQ) {
		for _, k := range c.keys {
			if !isOutcomeGuard(cond, k) {
				continue
			}
			// ==: the true edge (succIdx 0) is the pending side.
			pendingEdge := (succIdx == 0) == (cond.Op == token.EQL)
			if pendingEdge {
				mutate()[k] = live
			} else {
				mutate()[k] = resolved
			}
		}
	}
	return out
}

// isOutcomeGuard reports whether cond compares <key>.Outcome against an
// expression naming OutcomePending (either operand order).
func isOutcomeGuard(cond *ast.BinaryExpr, key string) bool {
	x, y := lockstate.Flatten(cond.X), lockstate.Flatten(cond.Y)
	if x == key+".Outcome" {
		return strings.HasSuffix(y, "OutcomePending")
	}
	if y == key+".Outcome" {
		return strings.HasSuffix(x, "OutcomePending")
	}
	return false
}
