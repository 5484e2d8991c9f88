package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture packages under testdata/src form a tiny standalone module.
// Expected findings are declared inline as trailing comments:
//
//	buf = append(buf, 1) // want:hotalloc "append may grow"
//
// An expectation names the analyzer and a substring of the message, and
// must land on the exact line of the finding. Every finding must be
// expected and every expectation must fire.
var wantRe = regexp.MustCompile(`want:([a-z]+) "([^"]*)"`)

func loadFixture(t *testing.T, pkg string) *Program {
	t.Helper()
	prog, err := Load(filepath.Join("testdata", "src"), "./"+pkg)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkg, err)
	}
	return prog
}

type expectation struct {
	analyzer, substr string
	matched          bool
}

// checkExpectations compares the findings of a full Run against the
// want-comments in the fixture sources.
func checkExpectations(t *testing.T, prog *Program, diags []Diagnostic) {
	t.Helper()
	exps := make(map[string][]*expectation) // "file:line" -> expectations
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						p := prog.Fset.Position(c.Pos())
						key := fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
						exps[key] = append(exps[key], &expectation{analyzer: m[1], substr: m[2]})
					}
				}
			}
		}
	}

	for _, d := range diags {
		p := prog.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
		found := false
		for _, e := range exps[key] {
			if !e.matched && e.analyzer == d.Analyzer && strings.Contains(d.Message, e.substr) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected finding at %s: [%s] %s", key, d.Analyzer, d.Message)
		}
	}
	for key, list := range exps {
		for _, e := range list {
			if !e.matched {
				t.Errorf("missing finding at %s: want [%s] containing %q", key, e.analyzer, e.substr)
			}
		}
	}
}

func TestFixtures(t *testing.T) {
	for _, name := range []string{
		"aliasing", "hotalloc", "floateq", "nocopy",
		"goleak", "locksafe", "ctxflow", "atomicmix", "maporder",
		"testonly",
	} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			pkg := name
			if name == "testonly" {
				// testonly checks only packages under the module's internal/
				// tree, and needs their importers loaded beside them.
				pkg = "internal/testonly/..."
			}
			prog := loadFixture(t, pkg)
			// Run the full suite, not just the analyzer under test: a fixture
			// that trips an unrelated analyzer is a bug in the fixture.
			checkExpectations(t, prog, Run(prog, nil))
		})
	}
}

// TestMalformedDirectives pins the "directive" pseudo-analyzer: a typo'd
// contract must fail the run, not silently stop applying.
func TestMalformedDirectives(t *testing.T) {
	t.Parallel()
	prog := loadFixture(t, "directive")
	diags := Run(prog, nil)
	want := []string{
		"unknown //lint: directive frobnicate",
		"malformed //lint:hotpath",
		"malformed //lint:hotsafe",
		"malformed //lint:nocx",
		"malformed //lint:allow",
		"malformed //lint:ignore",
		"//lint:allow names unknown analyzer gofrob",
		"//lint:ignore names unknown analyzer gofrob",
	}
	for _, w := range want {
		found := false
		for _, d := range diags {
			if d.Analyzer == "directive" && strings.Contains(d.Message, w) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no directive finding containing %q; got %d findings", w, len(diags))
		}
	}
	for _, d := range diags {
		if d.Analyzer != "directive" {
			t.Errorf("unexpected non-directive finding: [%s] %s", d.Analyzer, d.Message)
		}
	}
	if len(diags) != len(want) {
		for _, d := range diags {
			t.Logf("finding: %s", Format(prog.Fset, d))
		}
		t.Errorf("got %d findings, want %d", len(diags), len(want))
	}
}

// TestRepoClean is the enforcement test: the repo's own tree must lint
// clean, so `make check` (which runs this test and `make lint`) fails as
// soon as a change introduces a contract violation.
func TestRepoClean(t *testing.T) {
	t.Parallel()
	prog, err := Load(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	diags := Run(prog, nil)
	for _, d := range diags {
		t.Errorf("repo finding: %s", Format(prog.Fset, d))
	}
}

func TestFuncKeyForms(t *testing.T) {
	t.Parallel()
	prog := loadFixture(t, "nocopy")
	for _, key := range []string{"fixture/nocopy.byPointer", "fixture/nocopy.Workspace.ptrMethod", "fixture/nocopy.Workspace.valMethod"} {
		if prog.funcs[key] == nil {
			keys := make([]string, 0, len(prog.funcs))
			for k := range prog.funcs {
				keys = append(keys, k)
			}
			t.Errorf("no FuncInfo under %q; have %v", key, keys)
		}
	}
}
