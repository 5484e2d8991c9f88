package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// TestonlyAnalyzer flags exported package-level functions under the
// module's internal/ tree that no loaded file references. The loader reads
// non-test files only, so a finding means the function's only callers are
// tests: a twin of a production form, a substrate nothing wired up, or an
// oracle that belongs in the _test.go file that compares against it.
//
// Packages that no loaded package imports (the test harnesses) are skipped,
// and so are methods: interface dispatch and the root package's type
// aliases make "unused" impossible to prove for them. A function kept on
// purpose (a fixture several packages' tests share, or one another module
// calls) carries //lint:ignore testonly <reason>.
var TestonlyAnalyzer = &Analyzer{
	Name: "testonly",
	Doc:  "flags exported internal functions that no non-test code references",
	Run:  runTestonly,
}

func runTestonly(prog *Program) []Diagnostic {
	used := make(map[string]bool)
	imported := make(map[string]bool)
	for _, pkg := range prog.Pkgs {
		for _, imp := range pkg.Types.Imports() {
			imported[imp.Path()] = true
		}
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[FuncKey(fn)] = true
			}
		}
	}

	var diags []Diagnostic
	internal := prog.ModulePath + "/internal/"
	for _, pkg := range prog.Pkgs {
		if !strings.HasPrefix(pkg.Path, internal) || !imported[pkg.Path] {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || !fd.Name.IsExported() {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok || used[FuncKey(fn)] {
					continue
				}
				diags = append(diags, Diagnostic{
					Pos: fd.Name.Pos(),
					Message: fn.Name() + " has no non-test caller: delete it, or move it into the " +
						"_test.go file that uses it (//lint:ignore testonly <reason> if it must stay)",
				})
			}
		}
	}
	return diags
}
