package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoleakAnalyzer enforces the spawn-site termination contract: every `go`
// statement must carry static evidence that the goroutine it starts can be
// told to stop and be seen stopping. Without that evidence a daemon that
// reloads config or restarts tenants accumulates parked goroutines until
// the process dies — the classic monitor-loop failure mode.
//
// Accepted termination evidence, checked at the spawn site:
//
//   - the spawned call receives a context.Context argument (cancellation
//     is plumbed in), or
//   - the goroutine body ranges over a channel (it exits when the producer
//     closes the channel), or
//   - the goroutine body receives from a done-style channel or from
//     ctx.Done(), directly or in a select, or
//   - the goroutine is joined: its body calls (*sync.WaitGroup).Done and
//     the spawning function calls Wait on a WaitGroup — the bounded
//     worker-pool pattern.
//
// For spawned calls into this module the callee's body is inspected; calls
// into other modules (http.Server.Serve and the like) have no visible body
// and must either be wrapped or carry an //lint:ignore goleak <reason>
// stating how the goroutine is stopped.
var GoleakAnalyzer = &Analyzer{
	Name: "goleak",
	Doc:  "flags go statements with no provable termination path (ctx/done channel, channel close, or WaitGroup join)",
	Run:  runGoleak,
}

func runGoleak(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkGoStmts(prog, pkg, fd.Body, &diags)
			}
		}
	}
	return diags
}

// checkGoStmts walks one function body (and any function literals inside
// it) flagging unproven go statements. enclosing is the body whose
// WaitGroup Waits count as joins for spawns it contains.
func checkGoStmts(prog *Program, pkg *Package, enclosing *ast.BlockStmt, diags *[]Diagnostic) {
	ast.Inspect(enclosing, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if spawnProven(prog, pkg, gs, enclosing) {
			return true
		}
		*diags = append(*diags, Diagnostic{
			Pos: gs.Pos(),
			Message: "goroutine has no provable termination path: pass a context/done channel, " +
				"range over a channel the spawner closes, or join it with a WaitGroup " +
				"(//lint:ignore goleak <reason> if termination is managed elsewhere)",
		})
		return true
	})
}

// spawnProven applies the termination-evidence rules to one go statement.
func spawnProven(prog *Program, pkg *Package, gs *ast.GoStmt, enclosing *ast.BlockStmt) bool {
	info := pkg.Info

	// Rule 1: a context.Context argument plumbs cancellation into the call.
	for _, arg := range gs.Call.Args {
		if isContextType(info.TypeOf(arg)) {
			return true
		}
	}

	// Resolve the spawned body: a literal's own body, or the body of a
	// module-internal callee.
	var body *ast.BlockStmt
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		body = lit.Body
	} else if fn := calleeOf(info, gs.Call); fn != nil && fn.Pkg() != nil && prog.inModule(fn.Pkg().Path()) {
		if fi := prog.funcs[FuncKey(fn)]; fi != nil {
			body = fi.Decl.Body
			info = fi.Pkg.Info // the callee's body type-checks in its own package
		}
	}
	if body == nil {
		return false // external callee: no visible termination evidence
	}

	// Rules 2 and 3: the body ranges over a channel or receives from a
	// done-style channel / ctx.Done().
	terminates := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if _, ok := info.TypeOf(n.X).Underlying().(*types.Chan); ok {
				terminates = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && doneStyleReceive(info, n.X) {
				terminates = true
			}
		}
		return !terminates
	})
	if terminates {
		return true
	}

	// Rule 4: WaitGroup join — Done in the body, Wait in the spawner.
	return callsWaitGroupMethod(info, body, "Done") &&
		callsWaitGroupMethod(pkg.Info, enclosing, "Wait")
}

// doneStyleReceive reports whether the received-from expression is
// termination plumbing: a ctx.Done() call, or any channel of struct{} /
// receive-only element (the done-channel idiom).
func doneStyleReceive(info *types.Info, x ast.Expr) bool {
	if call, ok := ast.Unparen(x).(*ast.CallExpr); ok {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
			sel.Sel.Name == "Done" && isContextType(info.TypeOf(sel.X)) {
			return true
		}
	}
	ch, ok := info.TypeOf(x).Underlying().(*types.Chan)
	if !ok {
		return false
	}
	if st, ok := ch.Elem().Underlying().(*types.Struct); ok && st.NumFields() == 0 {
		return true // chan struct{} carries no data: it exists to signal
	}
	return ch.Dir() == types.RecvOnly // a <-chan parameter is signal plumbing too
}

// callsWaitGroupMethod reports whether the block contains a call of the
// named method on a sync.WaitGroup value.
func callsWaitGroupMethod(info *types.Info, body *ast.BlockStmt, name string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != name {
			return true
		}
		if named := namedOf(info.TypeOf(sel.X)); named != nil && typeKey(named) == "sync.WaitGroup" {
			found = true
			return false
		}
		return true
	})
	return found
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named := namedOf(t)
	return named != nil && typeKey(named) == "context.Context"
}
