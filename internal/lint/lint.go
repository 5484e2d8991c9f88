// Package lint implements idclint, the repo's static-analysis suite. It
// machine-checks the contracts the fast control loop relies on but the Go
// compiler cannot see: the *Into kernel aliasing rules (DESIGN.md §3.5),
// the zero-allocation steady state of the MPC/QP/LP hot paths, exact float
// comparisons, and by-value copies of scratch-carrying structs.
//
// The engine is deliberately stdlib-only: packages load via `go list
// -export` plus go/importer, analyzers walk go/ast with go/types facts,
// and contracts are declared in //lint: doc-comment directives (see
// annotations.go for the grammar and DESIGN.md §3.6 for the rationale).
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// An Analyzer inspects a loaded Program and reports findings. Analyzers
// report everything they see; the driver applies //lint:allow and
// //lint:ignore suppression afterwards so suppression semantics stay in
// one place.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Program) []Diagnostic
}

// Analyzers is the full suite, in report order. The first four check the
// fast-loop memory contracts; the concurrency-and-determinism pack
// (goleak, locksafe, ctxflow, atomicmix, maporder) makes the tree
// daemon-ready by construction — see DESIGN.md §3.11; testonly keeps
// test-only surface out of the non-test files (DESIGN.md §3.6).
var Analyzers = []*Analyzer{
	AliasingAnalyzer,
	HotallocAnalyzer,
	FloateqAnalyzer,
	NocopyAnalyzer,
	GoleakAnalyzer,
	LocksafeAnalyzer,
	CtxflowAnalyzer,
	AtomicmixAnalyzer,
	MaporderAnalyzer,
	TestonlyAnalyzer,
}

// analyzerNames is populated from Analyzers in init — parseDirective needs
// it, and reading the Analyzers slice directly from there would be an
// initialization cycle (every analyzer's Run reaches parseDirective).
var analyzerNames = map[string]bool{"directive": true}

func init() {
	for _, a := range Analyzers {
		analyzerNames[a.Name] = true
	}
}

// knownAnalyzer reports whether name is a real analyzer (or the directive
// pseudo-analyzer), so suppression directives naming a typo'd analyzer
// fail the run instead of silently suppressing nothing.
func knownAnalyzer(name string) bool {
	return analyzerNames[name]
}

// Run executes the given analyzers (nil means all of Analyzers) over prog
// and returns surviving findings sorted by position. Malformed //lint:
// directives found at load time are always included: a misspelled contract
// must fail the build rather than silently not apply.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	if analyzers == nil {
		analyzers = Analyzers
	}
	var diags []Diagnostic
	diags = append(diags, prog.badDirectives...)
	for _, a := range analyzers {
		for _, d := range a.Run(prog) {
			if d.Analyzer == "" {
				d.Analyzer = a.Name
			}
			if prog.suppressed(d.Analyzer, d.Pos) {
				continue
			}
			diags = append(diags, d)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := prog.Fset.Position(diags[i].Pos), prog.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// Format renders a diagnostic in the canonical file:line: [analyzer] form.
func Format(fset *token.FileSet, d Diagnostic) string {
	p := fset.Position(d.Pos)
	return fmt.Sprintf("%s:%d: [%s] %s", p.Filename, p.Line, d.Analyzer, d.Message)
}
