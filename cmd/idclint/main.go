// Command idclint runs the repo's static-analysis suite (internal/lint):
// repo-specific analyzers that machine-check the kernel aliasing
// contracts, the hot-path zero-allocation contract, exact float
// comparisons, by-value copies of scratch-carrying structs, and the
// concurrency-and-determinism pack — goroutine termination evidence,
// mutexes held across blocking calls, context plumbing, atomic/plain mixed
// access, and map-order-dependent sinks — plus exported internal functions
// that only tests call.
//
// Usage:
//
//	idclint [-only analyzer[,...]] [-disable analyzer[,...]] [-json] [packages]
//
// Packages default to ./... and accept the usual go-list patterns.
// Findings print as file:line: [analyzer] message, or as a JSON array with
// -json (one object per finding: file, line, analyzer, message) for CI
// artifact upload. The exit status is 1 when there are findings, 2 on
// operational failure (including unknown analyzer names in -only/-disable),
// and 0 on a clean tree. See DESIGN.md §3.6 and §3.11 for each analyzer
// and the //lint: annotation grammar.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the -json projection of one diagnostic.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(argv []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("idclint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	only := flags.String("only", "", "comma-separated analyzer names to run (default: all)")
	disable := flags.String("disable", "", "comma-separated analyzer names to skip")
	asJSON := flags.Bool("json", false, "emit findings as a JSON array instead of text")
	list := flags.Bool("list", false, "list analyzers and exit")
	flags.Usage = func() {
		fmt.Fprintf(stderr, "usage: idclint [-only analyzers] [-disable analyzers] [-json] [-list] [packages]\n")
		flags.PrintDefaults()
	}
	if err := flags.Parse(argv); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" && *disable != "" {
		fmt.Fprintf(stderr, "idclint: -only and -disable are mutually exclusive\n")
		return 2
	}

	byName := make(map[string]*lint.Analyzer)
	for _, a := range lint.Analyzers {
		byName[a.Name] = a
	}
	analyzers := lint.Analyzers
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "idclint: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}
	if *disable != "" {
		skip := make(map[string]bool)
		for _, name := range strings.Split(*disable, ",") {
			name = strings.TrimSpace(name)
			if _, ok := byName[name]; !ok {
				fmt.Fprintf(stderr, "idclint: unknown analyzer %q\n", name)
				return 2
			}
			skip[name] = true
		}
		analyzers = nil
		for _, a := range lint.Analyzers {
			if !skip[a.Name] {
				analyzers = append(analyzers, a)
			}
		}
	}

	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "idclint: %v\n", err)
		return 2
	}
	diags := lint.Run(prog, analyzers)
	if *asJSON {
		findings := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			p := prog.Fset.Position(d.Pos)
			findings = append(findings, jsonFinding{
				File:     p.Filename,
				Line:     p.Line,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(stderr, "idclint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, lint.Format(prog.Fset, d))
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "idclint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
