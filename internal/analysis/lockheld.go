package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockHeld guards the deadlock discipline the parallel decomposition driver
// is built on (DESIGN.md §3.5): a sync.Mutex/RWMutex may protect scalar
// merges and log serialization, but nothing that blocks — channel sends or
// receives, select, sync.WaitGroup.Wait — and no solver entry point may run
// while one is held. A worker holding a mutex across gate.acquire's channel
// send (or across a Solve) turns the bounded worker pool into a deadlock or
// serializes the solver fleet behind one lock.
//
// Lock tracking is intra-procedural and block-sequential: a mutex is held
// from x.Lock() to x.Unlock() in straight-line code, or to the end of the
// function when the unlock is deferred. Nested function literals are
// analyzed separately with no locks held (goroutine bodies and deferred
// closures run on their own schedule), except a literal passed straight to
// a same-package function that calls that parameter while it holds a
// mutex: the literal is analyzed with that mutex held, as the service's
// s.locked(func(st *state){…}) closures run under s.mu. Only operations
// written in the locked function itself are seen; a helper that blocks is
// its own function's business.
var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc: "flag channel operations, WaitGroup.Wait, and solver entry points " +
		"(Solve, ReSolveDual, Allocate) while a sync.Mutex/RWMutex is held",
	Run: runLockHeld,
}

// solverEntryPoints are the long-running call names that must never run
// under a mutex: each constructs or drives a simplex/MIP solve.
var solverEntryPoints = map[string]bool{"Solve": true, "ReSolveDual": true, "Allocate": true}

// lockState maps the rendered receiver expression of a held mutex ("d.mu")
// to the position of its Lock call.
type lockState map[string]token.Pos

func (h lockState) clone() lockState {
	c := make(lockState, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// oldest returns the held mutex name with the earliest lock position, for
// deterministic diagnostics.
func (h lockState) oldest() (string, token.Pos) {
	names := make([]string, 0, len(h))
	for name := range h {
		names = append(names, name)
	}
	sort.Strings(names)
	best := names[0]
	for _, name := range names[1:] {
		if h[name] < h[best] {
			best = name
		}
	}
	return best, h[best]
}

func runLockHeld(pass *Pass) {
	heldIn := lockedLiterals(pass)
	check := func(c ast.Node, held lockState) bool { return reportUnderLock(pass, c, held) }
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			held := make(lockState)
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
				if h := heldIn[fn]; h != nil {
					held = h.clone()
				}
			default:
				return true
			}
			if body != nil {
				analyzeLockStmts(pass, body.List, held, check)
			}
			return true
		})
	}
}

// lockedLiterals maps each function literal that runs with a mutex held to
// the locks it runs under: a literal passed as the i-th argument of a
// same-package function or method that calls its i-th parameter while it
// holds them.
func lockedLiterals(pass *Pass) map[*ast.FuncLit]lockState {
	type param struct {
		fn types.Object
		i  int
	}
	info := pass.Pkg.Info
	calledUnderLock := make(map[param]lockState)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			params := make(map[types.Object]param)
			for _, field := range fd.Type.Params.List {
				for _, name := range field.Names {
					params[info.Defs[name]] = param{info.Defs[fd.Name], len(params)}
				}
			}
			analyzeLockStmts(pass, fd.Body.List, make(lockState), func(c ast.Node, held lockState) bool {
				if call, ok := c.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok {
						if p, ok := params[info.Uses[id]]; ok {
							calledUnderLock[p] = held.clone()
						}
					}
				}
				return true
			})
		}
	}
	lits := make(map[*ast.FuncLit]lockState)
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var fn types.Object
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				fn = info.Uses[fun]
			case *ast.SelectorExpr:
				fn = info.Uses[fun.Sel]
			}
			for i, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok && calledUnderLock[param{fn, i}] != nil {
					lits[lit] = calledUnderLock[param{fn, i}]
				}
			}
			return true
		})
	}
	return lits
}

// analyzeLockStmts walks a statement list in order, tracking lock/unlock
// events and checking everything executed in between. Branch bodies are
// analyzed with a copy of the state; lock-state changes inside a branch do
// not propagate past it (conservative, and matches the codebase's
// straight-line locking discipline).
func analyzeLockStmts(pass *Pass, stmts []ast.Stmt, held lockState, visit lockVisit) {
	for _, st := range stmts {
		switch st := st.(type) {
		case *ast.ExprStmt:
			if name, recv, ok := syncMutexCall(pass, st.X); ok {
				switch name {
				case "Lock", "RLock":
					held[recv] = st.Pos()
				case "Unlock", "RUnlock":
					delete(held, recv)
				}
				continue
			}
			checkUnderLock(st, held, visit)
		case *ast.DeferStmt:
			if name, _, ok := syncMutexCall(pass, st.Call); ok && (name == "Unlock" || name == "RUnlock") {
				continue // held until return; later statements stay checked
			}
			// Other deferred work runs at return, outside this walk.
		case *ast.BlockStmt:
			analyzeLockStmts(pass, st.List, held, visit)
		case *ast.IfStmt:
			if st.Init != nil {
				checkUnderLock(st.Init, held, visit)
			}
			checkUnderLock(st.Cond, held, visit)
			analyzeLockStmts(pass, st.Body.List, held.clone(), visit)
			if st.Else != nil {
				analyzeLockStmts(pass, []ast.Stmt{st.Else}, held.clone(), visit)
			}
		case *ast.ForStmt:
			if st.Init != nil {
				checkUnderLock(st.Init, held, visit)
			}
			if st.Cond != nil {
				checkUnderLock(st.Cond, held, visit)
			}
			if st.Post != nil {
				checkUnderLock(st.Post, held, visit)
			}
			analyzeLockStmts(pass, st.Body.List, held.clone(), visit)
		case *ast.RangeStmt:
			checkUnderLock(st.X, held, visit)
			analyzeLockStmts(pass, st.Body.List, held.clone(), visit)
		case *ast.SwitchStmt:
			if st.Init != nil {
				checkUnderLock(st.Init, held, visit)
			}
			if st.Tag != nil {
				checkUnderLock(st.Tag, held, visit)
			}
			for _, clause := range st.Body.List {
				if cc, ok := clause.(*ast.CaseClause); ok {
					analyzeLockStmts(pass, cc.Body, held.clone(), visit)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, clause := range st.Body.List {
				if cc, ok := clause.(*ast.CaseClause); ok {
					analyzeLockStmts(pass, cc.Body, held.clone(), visit)
				}
			}
		default:
			checkUnderLock(st, held, visit)
		}
	}
}

// A lockVisit sees each node executed while the mutexes in held are locked,
// nested function literals aside; it returns false to skip the node's
// children.
type lockVisit func(c ast.Node, held lockState) bool

// checkUnderLock hands visit every node of a statement or expression
// executed while the mutexes in held are locked.
func checkUnderLock(n ast.Node, held lockState, visit lockVisit) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		return visit(c, held)
	})
}

// reportUnderLock reports c, executed with the mutexes in held locked, if it
// blocks or enters a solver.
func reportUnderLock(pass *Pass, c ast.Node, held lockState) bool {
	report := func(pos token.Pos, what string) {
		name, lockPos := held.oldest()
		pass.Reportf(pos, "%s while %s is held (locked at line %d); release the mutex before blocking or solver work",
			what, name, pass.Pkg.Fset.Position(lockPos).Line)
	}
	switch c := c.(type) {
	case *ast.SendStmt:
		report(c.Arrow, "channel send")
	case *ast.UnaryExpr:
		if c.Op == token.ARROW {
			report(c.OpPos, "channel receive")
		}
	case *ast.SelectStmt:
		report(c.Select, "select")
		return false
	case *ast.CallExpr:
		if sel, ok := c.Fun.(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Wait" && isWaitGroupWait(pass, sel) {
				report(c.Pos(), "sync.WaitGroup.Wait")
			} else if solverEntryPoints[sel.Sel.Name] {
				report(c.Pos(), "solver entry point "+sel.Sel.Name)
			}
		} else if id, ok := c.Fun.(*ast.Ident); ok && solverEntryPoints[id.Name] {
			report(c.Pos(), "solver entry point "+id.Name)
		}
	}
	return true
}

// syncMutexCall matches a method call on a sync.Mutex or sync.RWMutex
// (directly or embedded) and returns the method name and the rendered
// receiver expression.
func syncMutexCall(pass *Pass, e ast.Expr) (name, recv string, ok bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	selection := pass.Pkg.Info.Selections[sel]
	if selection == nil {
		return "", "", false
	}
	obj := selection.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch obj.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return obj.Name(), exprString(sel.X), true
	}
	return "", "", false
}

// isWaitGroupWait reports whether sel selects sync.WaitGroup.Wait (and not,
// say, sync.Cond.Wait, which releases its lock while waiting).
func isWaitGroupWait(pass *Pass, sel *ast.SelectorExpr) bool {
	t := pass.Pkg.Info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	return namedFrom(t, "sync", "WaitGroup")
}
