package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// The //lint: directive grammar. Directives ride in ordinary comments so
// the contracts live next to the code they govern:
//
//	//lint:noalias dst,a,b     (doc comment) dst must not alias listed params
//	//lint:hotpath             (doc comment) function is a zero-alloc root
//	//lint:hotsafe why         (doc comment) function is audited allocation-free;
//	                                         hotalloc trusts it and does not
//	                                         traverse into it from hot roots
//	//lint:nocopy              (doc comment) struct must not be copied by value
//	//lint:nocx why            (doc comment) function's concurrency is deliberately
//	                                         not context-scoped; ctxflow accepts it
//	//lint:allow floateq       (anywhere)    suppress an analyzer file-wide
//	//lint:ignore hotalloc why (anywhere)    suppress findings on this/next line
//
// allow and ignore must name real analyzers, and every suppression-shaped
// directive (ignore, nocx, hotsafe) must carry a non-empty reason — a
// suppression that explains nothing, or suppresses a misspelled analyzer,
// is a finding itself.
const directivePrefix = "//lint:"

// directive is one parsed //lint: comment.
type directive struct {
	Verb string   // "noalias", "hotpath", "hotsafe", "nocopy", "nocx", "allow", "ignore"
	Args []string // verb-specific operands
	Pos  token.Pos
}

// fileDirectives indexes the directives of a single file for suppression
// checks, which are positional (file-wide allows, per-line ignores).
type fileDirectives struct {
	// allow holds analyzer names suppressed for the whole file.
	allow map[string]bool
	// ignore maps an analyzer name to the set of source lines on which its
	// findings are suppressed. An //lint:ignore comment covers its own line
	// (trailing-comment style) and the line below (own-line style).
	ignore map[string]map[int]bool
}

// scanDirectives walks every comment in f, parsing //lint: directives into
// the per-file suppression index. Declaration-attached directives (noalias,
// hotpath, ...) are re-read from doc comments by the analyzers that use
// them; here they are only validated so a typo'd verb fails the lint run
// instead of silently disabling a contract.
func (prog *Program) scanDirectives(filename string, f *ast.File) {
	fd := &fileDirectives{
		allow:  make(map[string]bool),
		ignore: make(map[string]map[int]bool),
	}
	prog.directives[filename] = fd
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			d, ok, err := parseDirective(c)
			if err != "" {
				prog.badDirectives = append(prog.badDirectives, Diagnostic{
					Analyzer: "directive",
					Pos:      c.Pos(),
					Message:  err,
				})
				continue
			}
			if !ok {
				continue
			}
			switch d.Verb {
			case "allow":
				for _, name := range d.Args {
					fd.allow[name] = true
				}
			case "ignore":
				name := d.Args[0]
				if fd.ignore[name] == nil {
					fd.ignore[name] = make(map[int]bool)
				}
				line := prog.Fset.Position(c.Pos()).Line
				fd.ignore[name][line] = true
				fd.ignore[name][line+1] = true
			}
		}
	}
}

// parseDirective recognizes and validates a //lint: comment. The second
// result reports whether the comment was a directive at all; a non-empty
// third result is a validation error message.
func parseDirective(c *ast.Comment) (directive, bool, string) {
	text := c.Text
	if !strings.HasPrefix(text, directivePrefix) {
		return directive{}, false, ""
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return directive{}, false, "malformed directive: missing verb after //lint:"
	}
	d := directive{Verb: fields[0], Args: fields[1:], Pos: c.Pos()}
	switch d.Verb {
	case "noalias":
		if len(d.Args) != 1 || d.Args[0] == "" {
			return directive{}, false, "malformed //lint:noalias: want a comma-separated parameter list, e.g. //lint:noalias dst,a"
		}
		d.Args = strings.Split(d.Args[0], ",")
	case "hotpath", "nocopy":
		if len(d.Args) != 0 {
			return directive{}, false, "malformed //lint:" + d.Verb + ": takes no arguments"
		}
	case "hotsafe":
		if len(d.Args) == 0 {
			return directive{}, false, "malformed //lint:hotsafe: want a reason, e.g. //lint:hotsafe single atomic add"
		}
	case "nocx":
		if len(d.Args) == 0 {
			return directive{}, false, "malformed //lint:nocx: want a reason, e.g. //lint:nocx server lifetime is managed by the stop closure"
		}
	case "allow":
		if len(d.Args) == 0 {
			return directive{}, false, "malformed //lint:allow: want one or more analyzer names"
		}
		for _, name := range d.Args {
			if !knownAnalyzer(name) {
				return directive{}, false, "//lint:allow names unknown analyzer " + name
			}
		}
	case "ignore":
		if len(d.Args) < 2 {
			return directive{}, false, "malformed //lint:ignore: want an analyzer name and a reason"
		}
		if !knownAnalyzer(d.Args[0]) {
			return directive{}, false, "//lint:ignore names unknown analyzer " + d.Args[0]
		}
	default:
		return directive{}, false, "unknown //lint: directive " + d.Verb
	}
	return d, true, ""
}

// docDirectives parses the directives attached to a declaration's doc
// comment group (already-validated verbs only; malformed ones were reported
// at scan time and are skipped here).
func docDirectives(doc *ast.CommentGroup) []directive {
	if doc == nil {
		return nil
	}
	var out []directive
	for _, c := range doc.List {
		if d, ok, errMsg := parseDirective(c); ok && errMsg == "" {
			out = append(out, d)
		}
	}
	return out
}

// suppressed reports whether a diagnostic from the named analyzer at pos is
// silenced by an //lint:allow (file-wide) or //lint:ignore (line) comment.
func (prog *Program) suppressed(analyzer string, pos token.Pos) bool {
	p := prog.Fset.Position(pos)
	fd := prog.directives[p.Filename]
	if fd == nil {
		return false
	}
	if fd.allow[analyzer] {
		return true
	}
	return fd.ignore[analyzer][p.Line]
}
