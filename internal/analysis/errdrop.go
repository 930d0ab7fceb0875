package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrDrop flags discarded error results. Two severities:
//
//   - Everywhere: a call whose error result is dropped on the floor as a
//     bare expression statement (`f.Close()` as a statement) is flagged,
//     except for the print families that are conventionally unchecked and
//     the cleanup idiom `f.Close()` immediately before returning a primary
//     error (the primary error supersedes the Close result, and the file
//     is abandoned anyway).
//   - Strict (durability paths): inside internal/checkpoint — the package
//     that holds the module's fsync and rename calls — explicit discards
//     are flagged too: `_ = f.Sync()` and `defer f.Close()`, because the
//     crash-safety story (DESIGN.md §3.9) is exactly the claim that these
//     errors are observed: a torn write that Close or Sync reported and
//     nobody saw produces a corrupt newest generation instead of a detected
//     one. The strict rule only fires when the discarded call is itself
//     durability-relevant (an *os.File mutation or an os
//     rename/remove/write); a checkpoint function discarding, say, a parse
//     error is the general rule's business, not a crash-safety hazard.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc: "flag discarded error results; inside internal/checkpoint, explicit " +
		"discards of file and rename errors via _ = and defer are flagged too",
	Run: runErrDrop,
}

// errDropExemptPkgs are packages whose error results are conventionally
// unchecked when printing: a failed diagnostic print has no recovery.
var errDropExemptPkgs = map[string]bool{"fmt": true}

// errDropExemptRecvs are receiver types whose error-returning methods are
// documented never to return a non-nil error (hash.Hash.Write,
// bytes.Buffer and strings.Builder writers). Matched by substring against
// the receiver expression's static type.
var errDropExemptRecvs = []string{
	"bytes.Buffer", "strings.Builder", "hash.Hash", "hash/crc32",
}

func runErrDrop(pass *Pass) {
	strict := strings.HasSuffix("/"+pass.Pkg.Path, "/internal/checkpoint")
	for _, file := range pass.Pkg.Files {
		var stack nodeStack
		ast.Inspect(file, func(n ast.Node) bool {
			if !stack.step(n) {
				return true
			}
			switch s := n.(type) {
			case *ast.ExprStmt:
				call, ok := ast.Unparen(s.X).(*ast.CallExpr)
				if !ok {
					return true
				}
				if !returnsError(pass.Pkg, call) || errDropExempt(pass.Pkg, call) {
					return true
				}
				if closeBeforeErrorReturn(pass.Pkg, call, stack) {
					return true
				}
				pass.Reportf(call.Pos(), "error result of %s is discarded; handle it or assign it explicitly",
					callName(call))
			case *ast.DeferStmt:
				call := s.Call
				if !strict || !durableCallee(pass, call) {
					return true
				}
				if !returnsError(pass.Pkg, call) || errDropExempt(pass.Pkg, call) {
					return true
				}
				pass.Reportf(call.Pos(),
					"error result of deferred %s is discarded on a durability path; "+
						"crash safety depends on observing it (use a named-error defer)",
					callName(call))
			case *ast.AssignStmt:
				if strict {
					checkBlankErrAssign(pass, s)
				}
			}
			return true
		})
	}
}

// durableCallee reports whether the discarded call is itself
// durability-relevant: an *os.File mutation or an os-package
// rename/remove/write. The strict rule requires this — being inside the
// checkpoint package does not make a parse error crash-safety-critical.
func durableCallee(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() == "os" {
		switch fn.Name() {
		case "Rename", "Remove", "RemoveAll", "WriteFile", "Truncate":
			return true
		}
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil && strings.Contains(sig.Recv().Type().String(), "os.File") {
		switch fn.Name() {
		case "Write", "WriteString", "WriteAt", "Sync", "Close", "Truncate":
			return true
		}
	}
	return false
}

// closeBeforeErrorReturn matches the cleanup idiom
//
//	if err := write(f); err != nil {
//		f.Close()
//		return fmt.Errorf(...: %w", err)
//	}
//
// — a bare Close immediately followed, in the same block, by a return that
// propagates a primary error. The Close result is superseded; flagging it
// forces noise annotations on every error path that abandons a file.
func closeBeforeErrorReturn(pkg *Package, call *ast.CallExpr, stack nodeStack) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return false
	}
	if len(stack) < 2 {
		return false
	}
	block, ok := stack[len(stack)-2].(*ast.BlockStmt)
	if !ok {
		return false
	}
	stmt := stack[len(stack)-1].(ast.Stmt)
	for i, st := range block.List {
		if st != stmt {
			continue
		}
		if i+1 >= len(block.List) {
			return false
		}
		ret, ok := block.List[i+1].(*ast.ReturnStmt)
		if !ok {
			return false
		}
		for _, res := range ret.Results {
			if id, ok := res.(*ast.Ident); ok && id.Name == "nil" {
				continue
			}
			if t := pkg.Info.TypeOf(res); t != nil && isErrorType(t) {
				return true
			}
		}
		return false
	}
	return false
}

// checkBlankErrAssign flags `_ = call` / `x, _ := call` where the blank
// swallows an error result, in strict scope only and only when the call
// itself is durability-relevant (see durableCallee).
func checkBlankErrAssign(pass *Pass, s *ast.AssignStmt) {
	if len(s.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
	if !ok || errDropExempt(pass.Pkg, call) || !durableCallee(pass, call) {
		return
	}
	results := callResults(pass.Pkg, call)
	if results == nil {
		return
	}
	for i, lhs := range s.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" {
			continue
		}
		if i < results.Len() && isErrorType(results.At(i).Type()) {
			pass.Reportf(s.Pos(),
				"error result of %s is explicitly discarded on a durability path; "+
					"crash safety depends on observing it", callName(call))
			return
		}
	}
}

// callResults returns the result tuple of a call, or nil.
func callResults(pkg *Package, call *ast.CallExpr) *types.Tuple {
	t := pkg.Info.TypeOf(call.Fun)
	sig, ok := t.(*types.Signature)
	if !ok {
		return nil
	}
	return sig.Results()
}

// returnsError reports whether any result of the call is an error.
func returnsError(pkg *Package, call *ast.CallExpr) bool {
	results := callResults(pkg, call)
	if results == nil {
		return false
	}
	for i := 0; i < results.Len(); i++ {
		if isErrorType(results.At(i).Type()) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// errDropExempt reports whether the call's error is conventionally
// unchecked: fmt prints, writes to os.Stdout/os.Stderr (same convention —
// a failed diagnostic print has no recovery), and writers documented never
// to fail. The receiver check uses the static type of the receiver
// *expression*, not the method's declared receiver: hash.Hash inherits
// Write from an embedded io.Writer, so the declared receiver says nothing.
func errDropExempt(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	if fn.Pkg() != nil && errDropExemptPkgs[fn.Pkg().Path()] {
		return true
	}
	if x, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
		if obj := pkg.Info.Uses[x.Sel]; obj != nil && obj.Pkg() != nil &&
			obj.Pkg().Path() == "os" && (obj.Name() == "Stdout" || obj.Name() == "Stderr") {
			return true
		}
	}
	if recv := pkg.Info.TypeOf(sel.X); recv != nil {
		s := recv.String()
		for _, exempt := range errDropExemptRecvs {
			if strings.Contains(s, exempt) {
				return true
			}
		}
	}
	return false
}

// callName renders the called function compactly for diagnostics.
func callName(call *ast.CallExpr) string {
	return exprString(ast.Unparen(call.Fun))
}
