package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicmixAnalyzer flags struct fields accessed both through sync/atomic
// calls and through plain loads or stores. Mixing the two is the silent
// variant of a data race: the plain access compiles to an ordinary MOV
// that the race detector only catches when the schedule cooperates, and
// on weaker memory models it can observe torn or stale values even when
// it doesn't. A field is either always atomic or always lock-protected —
// never both.
//
// The typed atomics (atomic.Uint64 and friends, the repo's idiom in
// internal/obs) are immune by construction: their representation is
// unexported, so every access goes through Load/Store methods. This
// analyzer guards the other pattern — atomic.AddUint64(&s.n, 1) on a
// plain uint64 field — where nothing stops a later `s.n++` from
// compiling.
var AtomicmixAnalyzer = &Analyzer{
	Name: "atomicmix",
	Doc:  "flags fields accessed both via sync/atomic calls and via plain loads/stores",
	Run:  runAtomicmix,
}

func runAtomicmix(prog *Program) []Diagnostic {
	var diags []Diagnostic

	// Pass 1 (whole program): collect every field that appears as &s.f in a
	// sync/atomic call argument, and remember those exact selector nodes so
	// pass 2 doesn't count the atomic accesses themselves as plain ones.
	atomicFields := make(map[string]bool) // "pkg/path.Type.field"
	sanctioned := make(map[ast.Node]bool) // selector nodes inside atomic call args
	fieldKeyOf := func(info *types.Info, sel *ast.SelectorExpr) string {
		selection, ok := info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return ""
		}
		named := namedOf(selection.Recv())
		if named == nil {
			return ""
		}
		return typeKey(named) + "." + sel.Sel.Name
	}
	for _, pkg := range prog.Pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeOf(info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
					return true
				}
				for _, arg := range call.Args {
					ue, ok := ast.Unparen(arg).(*ast.UnaryExpr)
					if !ok || ue.Op != token.AND {
						continue
					}
					sel, ok := ast.Unparen(ue.X).(*ast.SelectorExpr)
					if !ok {
						continue
					}
					if key := fieldKeyOf(info, sel); key != "" {
						atomicFields[key] = true
						sanctioned[sel] = true
					}
				}
				return true
			})
		}
	}
	if len(atomicFields) == 0 {
		return diags
	}

	// Pass 2: any other access to one of those fields is a plain load or
	// store racing the atomic ops.
	for _, pkg := range prog.Pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || sanctioned[sel] {
					return true
				}
				key := fieldKeyOf(info, sel)
				if key == "" || !atomicFields[key] {
					return true
				}
				diags = append(diags, Diagnostic{
					Pos: sel.Pos(),
					Message: fmt.Sprintf("plain access to %s, which is elsewhere accessed via sync/atomic; every access must go through the atomic API",
						key),
				})
				return true
			})
		}
	}
	return diags
}
