// Package analysis is a small stdlib-only static-analysis framework for
// this module, driven by cmd/fragvet. It exists because the repo's hardest
// bugs have been *invariant* bugs rather than logic bugs: Go map iteration
// order steering simplex pivot tie-breaks, a retained heuristic slice
// corrupting the MIP incumbent, a solver call made while a mutex was held.
// The paper's reproducibility claims depend on bit-identical solver runs,
// so these invariants are machine-checked on every build (DESIGN.md §3.6).
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// shape (Analyzer, Pass, Diagnostic) at a fraction of its surface, using
// only go/parser, go/ast, go/types, and go/importer — the module's
// stdlib-only rule excludes x/tools.
//
// # Suppression
//
// A finding can be silenced with an annotation on the offending line (as a
// trailing comment) or on the line directly above it:
//
//	//fragvet:ignore <analyzer> — <reason>
//
// The separator may be an em-dash or "--"; the block-comment form
// /*fragvet:ignore ...*/ is also accepted. A directive whose reason is
// empty, or that names an unknown analyzer, is itself a diagnostic: every
// suppression must say why the flagged code is safe.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// An Analyzer is one named invariant check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant the analyzer
	// guards and what a finding means.
	Doc string
	// Run reports findings on pass via pass.Reportf.
	Run func(*Pass)
}

// Analyzers is the fragvet suite, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{RangeMapOrder, FloatCmp, AliasRetain, LockHeld, CtxHook, Atomicwrite, ErrDrop, SrvTimeout}
}

// A Pass hands one analyzer the parsed and type-checked view of one package.
// Every analyzer is per-package: a finding never depends on another
// package's function bodies.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding with a resolved source position. A finding
// covered by an ignore directive is still returned, with SuppressedBy set
// to the directive's own position — callers that gate on findings must
// filter on SuppressedBy == "".
type Diagnostic struct {
	Analyzer     string
	Pos          token.Position
	Message      string
	SuppressedBy string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Run applies the analyzers to each package and returns every diagnostic —
// suppressed findings carry SuppressedBy, stale directives and directive
// errors are reported under the "fragvet" analyzer — sorted by file, line,
// column, and analyzer.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		dirs := collectDirectives(pkg, known)
		diags = append(diags, dirs.errs...)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg}
			a.Run(pass)
			for _, d := range pass.diags {
				if by := dirs.suppressor(a.Name, d.Pos); by != nil {
					d.SuppressedBy = fmt.Sprintf("%s:%d", by.pos.Filename, by.pos.Line)
				}
				diags = append(diags, d)
			}
		}
		// A directive that suppressed nothing across the whole suite is rot:
		// either the finding was fixed (delete the directive) or the
		// directive is on the wrong line (it hides nothing).
		diags = append(diags, dirs.stale(known)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// nodeStack tracks the ancestor chain during an ast.Inspect walk; push
// returns false exactly when n is the pop event.
type nodeStack []ast.Node

func (s *nodeStack) step(n ast.Node) bool {
	if n == nil {
		*s = (*s)[:len(*s)-1]
		return false
	}
	*s = append(*s, n)
	return true
}

// enclosingFuncBody returns the body of the innermost enclosing function
// (declaration or literal) on the stack, excluding node itself.
func (s nodeStack) enclosingFuncBody() *ast.BlockStmt {
	for i := len(s) - 2; i >= 0; i-- {
		switch fn := s[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// enclosingFuncDecl returns the innermost enclosing named function
// declaration on the stack, if any.
func (s nodeStack) enclosingFuncDecl() *ast.FuncDecl {
	for i := len(s) - 2; i >= 0; i-- {
		if fn, ok := s[i].(*ast.FuncDecl); ok {
			return fn
		}
	}
	return nil
}
