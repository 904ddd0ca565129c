// Package analysis is a self-contained static-analysis driver enforcing
// the repository's concurrency, clock and nil-safety invariants — the
// properties the paper's QoS results rely on but the compiler cannot
// check. It is written only against the standard library (go/parser,
// go/types, go/ast, go/importer), preserving the repo's stdlib-only
// constraint; there is no dependency on golang.org/x/tools.
//
// The suite ships five domain analyzers:
//
//   - clockuse:   no direct time.Now/Since/Until/After outside the clock
//     boundary packages — everything else takes the injected sim.Clock,
//     so simulated and real-network runs stay bit-identical.
//   - mutexhold:  no channel operations, network I/O, time.Sleep or
//     histogram Observe while a mutex is held; BatchObserver is the
//     sanctioned under-lock observation path.
//   - atomicmix:  a struct field accessed through sync/atomic anywhere
//     must be accessed atomically everywhere.
//   - nilrecv:    exported pointer-receiver methods on types marked
//     //fdlint:nilsafe must begin with a nil-receiver guard.
//   - unitcheck:  no arithmetic mixing time.Duration nanosecond counts
//     with raw variables named as milliseconds.
//
// Diagnostics can be suppressed per line with
//
//	//fdlint:ignore analyzer[,analyzer...] reason
//
// (on the offending line or the line above) or per file with
//
//	//fdlint:file-ignore analyzer reason
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one invariant checker. Run inspects a single type-checked
// package through the Pass and reports findings with Pass.Report.
type Analyzer struct {
	// Name is the identifier printed in diagnostics and matched by
	// //fdlint:ignore directives.
	Name string
	// Doc is a one-line description of the invariant enforced.
	Doc string
	// Run inspects one package.
	Run func(*Pass)
}

// All lists every analyzer in the suite, in reporting order.
var All = []*Analyzer{
	ClockUse,
	MutexHold,
	AtomicMix,
	NilRecv,
	UnitCheck,
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Diagnostic is one finding: a position, the analyzer that produced it,
// and the message.
type Diagnostic struct {
	// Pos locates the finding; Filename is relative to the program root.
	Pos token.Position
	// Analyzer is the name of the reporting analyzer.
	Analyzer string
	// Message describes the violation.
	Message string
}

// String renders the driver's output line: file:line: analyzer: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	// Analyzer is the checker being run.
	Analyzer *Analyzer
	// Prog is the enclosing program (positions, cross-package facts).
	Prog *Program
	// Pkg is the package under inspection.
	Pkg *Package

	diags *[]Diagnostic
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the given analyzers (All when nil) over every requested
// package and returns the surviving diagnostics, directive-filtered and
// sorted by file, line and analyzer.
func (prog *Program) Run(analyzers []*Analyzer) []Diagnostic {
	if analyzers == nil {
		analyzers = All
	}
	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, diags: &diags}
			a.Run(pass)
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if !prog.ignored(d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return kept
}

// typeName returns the name of the named type underlying t (through one
// pointer indirection), or "".
func typeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// pkgFunc resolves a call of the form pkg.Fn where pkg is an imported
// package with the given import path, returning the function name and
// true on match.
func pkgFunc(info *types.Info, call *ast.CallExpr, path string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != path {
		return "", false
	}
	return sel.Sel.Name, true
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
