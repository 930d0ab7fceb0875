package analysis

import (
	"go/ast"
	"go/types"
)

// CtxHook guards the cancellation contract of the fault-tolerant solve
// pipeline (DESIGN.md §3.7): every solver layer hands a polled
// `Canceled func() bool` hook down into the solver options it constructs
// for nested solves. A layer that builds a fresh Options value and forgets the
// hook silently detaches everything below it from Ctrl-C and -timeout — the
// run still terminates, but only at the next layer boundary, which for a
// large subproblem can be minutes away.
//
// The check is structural: inside any function that receives a hook (a
// parameter or receiver whose type — or whose immediate field — is a struct
// with a `Canceled func() bool` field), a keyed composite literal of such a
// hook-carrying struct type must set the Canceled key. Two shapes are
// recognized as already propagating and skipped: a literal nested inside an
// enclosing literal that sets Canceled (the outer layer owns the hook for
// everything inside it: core hands its Canceled to every search and LP, so
// a mip.Options nested in a core.Options literal that sets Canceled needs
// none of its own), and a literal assigned to a variable whose .Canceled
// field is assigned elsewhere in the same function (copy-then-patch).
// Positional literals set every field and are never flagged.
//
// The allocation service widened the contract: a context.Context or
// *http.Request parameter is a cancellation source too. An HTTP handler (or
// any context-receiving function) that launches a solve with bare Options
// detaches that solve from client disconnects and server shutdown, so such
// functions are held to the same rule — derive Canceled from the context
// (`func() bool { return ctx.Err() != nil }`) when building solver options.
var CtxHook = &Analyzer{
	Name: "ctxhook",
	Doc: "flag solver Options literals that drop the Canceled cancellation " +
		"hook inside functions that received one (or received a context)",
	Run: runCtxHook,
}

func runCtxHook(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			hook := funcReceivesHook(pass, fn)
			ctx := funcReceivesContext(pass, fn)
			if !hook && !ctx {
				continue
			}
			repaired := canceledAssignTargets(pass, fn.Body)
			var stack nodeStack
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if !stack.step(n) {
					return false
				}
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				t := pass.Pkg.Info.TypeOf(lit)
				if !hasCancelHook(t) {
					return true
				}
				if literalSetsCanceled(lit) || literalIsPositional(lit) {
					return true
				}
				if enclosingLiteralSetsCanceled(pass, stack) {
					return true
				}
				if obj := assignedObject(pass, stack, lit); obj != nil && repaired[obj] {
					return true
				}
				name := types.TypeString(deref(t), types.RelativeTo(pass.Pkg.Types))
				if hook {
					pass.Reportf(lit.Pos(), "%s literal drops the Canceled hook this function received; "+
						"set Canceled (or patch it on the variable) so nested solves stay cancelable", name)
				} else {
					pass.Reportf(lit.Pos(), "%s literal ignores the context this function received; "+
						"set Canceled from it (or patch it on the variable) so solves launched here "+
						"stay cancelable on disconnect and shutdown", name)
				}
				return true
			})
		}
	}
}

// hasCancelHook reports whether t (after deref) is a named struct with a
// `Canceled func() bool` field.
func hasCancelHook(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() != "Canceled" {
			continue
		}
		sig, ok := f.Type().Underlying().(*types.Signature)
		if !ok {
			return false
		}
		if sig.Params().Len() != 0 || sig.Results().Len() != 1 {
			return false
		}
		b, ok := sig.Results().At(0).Type().Underlying().(*types.Basic)
		return ok && b.Info()&types.IsBoolean != 0
	}
	return false
}

// carriesHook reports whether t itself is hook-carrying, or has an
// immediate (depth-1) struct field that is.
func carriesHook(t types.Type) bool {
	if hasCancelHook(t) {
		return true
	}
	if t == nil {
		return false
	}
	st, ok := deref(t).Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if hasCancelHook(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// funcReceivesHook reports whether fn's receiver or any parameter carries a
// cancellation hook — making fn responsible for propagating it.
func funcReceivesHook(pass *Pass, fn *ast.FuncDecl) bool {
	var lists []*ast.FieldList
	if fn.Recv != nil {
		lists = append(lists, fn.Recv)
	}
	if fn.Type.Params != nil {
		lists = append(lists, fn.Type.Params)
	}
	for _, fl := range lists {
		for _, field := range fl.List {
			if carriesHook(pass.Pkg.Info.TypeOf(field.Type)) {
				return true
			}
		}
	}
	return false
}

// funcReceivesContext reports whether fn's receiver or any parameter is a
// context.Context or *net/http.Request — cancellation sources that make fn
// responsible for wiring Canceled into any solver options it builds.
func funcReceivesContext(pass *Pass, fn *ast.FuncDecl) bool {
	var lists []*ast.FieldList
	if fn.Recv != nil {
		lists = append(lists, fn.Recv)
	}
	if fn.Type.Params != nil {
		lists = append(lists, fn.Type.Params)
	}
	for _, fl := range lists {
		for _, field := range fl.List {
			if isContextSource(pass.Pkg.Info.TypeOf(field.Type)) {
				return true
			}
		}
	}
	return false
}

// isContextSource reports whether t is context.Context or *net/http.Request.
func isContextSource(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "context":
		return obj.Name() == "Context"
	case "net/http":
		return obj.Name() == "Request"
	}
	return false
}

// literalSetsCanceled reports whether the keyed literal sets the Canceled
// field.
func literalSetsCanceled(lit *ast.CompositeLit) bool {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Canceled" {
			return true
		}
	}
	return false
}

// literalIsPositional reports whether the literal uses positional elements,
// which cover every field including Canceled.
func literalIsPositional(lit *ast.CompositeLit) bool {
	if len(lit.Elts) == 0 {
		return false
	}
	_, keyed := lit.Elts[0].(*ast.KeyValueExpr)
	return !keyed
}

// enclosingLiteralSetsCanceled reports whether an ancestor composite
// literal on the stack is hook-carrying and sets Canceled itself — that
// outer layer owns hook propagation for everything nested inside it.
func enclosingLiteralSetsCanceled(pass *Pass, stack nodeStack) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		outer, ok := stack[i].(*ast.CompositeLit)
		if !ok {
			continue
		}
		if hasCancelHook(pass.Pkg.Info.TypeOf(outer)) && literalSetsCanceled(outer) {
			return true
		}
	}
	return false
}

// assignedObject returns the object of the variable the literal is directly
// assigned to (`x := T{...}`, `x = T{...}`, `var x = T{...}`, with or
// without an intervening &), or nil.
func assignedObject(pass *Pass, stack nodeStack, lit *ast.CompositeLit) types.Object {
	var value ast.Expr = lit
	i := len(stack) - 2
	if i >= 0 {
		if u, ok := stack[i].(*ast.UnaryExpr); ok && u.X == value {
			value = u
			i--
		}
	}
	if i < 0 {
		return nil
	}
	var lhs ast.Expr
	switch st := stack[i].(type) {
	case *ast.AssignStmt:
		for k, rhs := range st.Rhs {
			if rhs == value && k < len(st.Lhs) {
				lhs = st.Lhs[k]
			}
		}
	case *ast.ValueSpec:
		for k, rhs := range st.Values {
			if rhs == value && k < len(st.Names) {
				lhs = st.Names[k]
			}
		}
	}
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.Pkg.Info.ObjectOf(id)
}

// canceledAssignTargets collects the objects x for which the body contains
// an `x.Canceled = ...` assignment — literals assigned to such variables
// are patched after construction and need not set the key inline.
func canceledAssignTargets(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	targets := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range st.Lhs {
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Canceled" {
				continue
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				continue
			}
			if obj := pass.Pkg.Info.ObjectOf(id); obj != nil {
				targets[obj] = true
			}
		}
		return true
	})
	return targets
}
