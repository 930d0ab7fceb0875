package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the interprocedural substrate shared by the fragvet
// analyzers: a module-wide call graph over every function declaration and
// function literal of the analyzed packages, and per-function effect
// summaries computed bottom-up over strongly connected components
// (DESIGN.md §3.6).
//
// Dispatch resolution is deliberately simple and deterministic:
//
//   - Static calls (package functions, concrete methods) resolve exactly.
//   - Interface method calls resolve to every module type whose method set
//     implements the interface — the conservative approximation that makes
//     basisKernel-style seams (simplex's LU kernel behind its interface) visible.
//   - A function or method *value* (passed as an argument, stored in a
//     field) contributes a "may call" reference edge from the function that
//     takes the value: whoever receives it may invoke it synchronously.
//   - Calls through function-typed variables and fields (Options.Logf,
//     Options.Canceled) resolve to nothing: the tool is optimistic about
//     dynamic calls it cannot see, and precise about everything it can.
//
// go and defer edges carry a reduced effect mask (asyncSuppressed): a
// goroutine's blocking does not block its spawner.

// EdgeKind classifies a call-graph edge.
type EdgeKind uint8

const (
	// EdgeCall is a synchronous call.
	EdgeCall EdgeKind = iota
	// EdgeGo is the immediate call of a go statement.
	EdgeGo
	// EdgeDefer is the immediate call of a defer statement.
	EdgeDefer
	// EdgeRef is a function or method value taken without being called:
	// the holder may invoke it, so summaries treat it as a possible call.
	EdgeRef
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeCall:
		return "call"
	case EdgeGo:
		return "go"
	case EdgeDefer:
		return "defer"
	case EdgeRef:
		return "ref"
	}
	return fmt.Sprintf("EdgeKind(%d)", int(k))
}

// A CGEdge is one outgoing edge of the call graph.
type CGEdge struct {
	Callee *CGNode
	Kind   EdgeKind
	Pos    token.Pos
}

// A CGNode is one function in the call graph: a declared function or
// method (Fn/Decl set) or a function literal (Lit set, Parent the
// enclosing node).
type CGNode struct {
	Fn     *types.Func
	Decl   *ast.FuncDecl
	Lit    *ast.FuncLit
	Parent *CGNode // enclosing function of a literal, nil for declarations
	Pkg    *Package
	Label  string

	Edges []CGEdge

	// Direct holds the effects of this function's own body; Summary the
	// transitive closure over the call graph (valid after propagation).
	Direct    Effect
	Summary   Effect
	witnesses map[Effect]*effectWitness

	// retTaint reports whether the function's return values carry
	// nondeterministic data (TaintValue) or nondeterministic ordering
	// (TaintOrder); retSrc are the witnesses per bit.
	retTaint Taint
	retSrc   [2]taintSrc

	// varTaint is the fixpoint taint of the function's local variables,
	// kept for detsource's sink pass.
	varTaint map[types.Object]*taintVal

	// tarjan scratch
	index, lowlink int
	onStack        bool
}

// body returns the function's body block, which may be nil for bodyless
// declarations (assembly stubs).
func (n *CGNode) body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	if n.Decl != nil {
		return n.Decl.Body
	}
	return nil
}

// funcType returns the declared signature syntax.
func (n *CGNode) funcType() *ast.FuncType {
	if n.Lit != nil {
		return n.Lit.Type
	}
	return n.Decl.Type
}

// Pos returns the function's declaration position.
func (n *CGNode) Pos() token.Pos {
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	return n.Decl.Pos()
}

// A Module is the cross-package view the interprocedural analyzers share:
// the call graph and effect summaries over one set of packages, built once
// per Run so nine analyzers pay for one analysis (the per-package summary
// cache the 2× wall-time budget depends on).
type Module struct {
	Pkgs  []*Package
	Nodes []*CGNode

	byFunc map[*types.Func]*CGNode
	byLit  map[*ast.FuncLit]*CGNode
	// callees resolves each call expression to its possible module callees.
	callees map[*ast.CallExpr][]*CGNode
	// ifaceImpls memoizes interface-method -> implementing module methods.
	ifaceImpls map[*types.Func][]*CGNode
	// namedTypes lists the module's concrete named types, for interface
	// method-set approximation.
	namedTypes []*types.Named
	// sccs holds the strongly connected components in bottom-up
	// (reverse-topological) order, as discovered by propagate.
	sccs [][]*CGNode
}

// NodeOf returns the call-graph node of a declared function, or nil.
func (m *Module) NodeOf(fn *types.Func) *CGNode { return m.byFunc[fn] }

// LitNode returns the call-graph node of a function literal, or nil.
func (m *Module) LitNode(lit *ast.FuncLit) *CGNode { return m.byLit[lit] }

// CalleesAt returns the resolved module callees of a call expression.
func (m *Module) CalleesAt(call *ast.CallExpr) []*CGNode { return m.callees[call] }

// PkgNodes returns the nodes declared in pkg, in source order.
func (m *Module) PkgNodes(pkg *Package) []*CGNode {
	var nodes []*CGNode
	for _, n := range m.Nodes {
		if n.Pkg == pkg {
			nodes = append(nodes, n)
		}
	}
	return nodes
}

// BuildModule constructs the call graph and effect summaries for pkgs.
// Packages outside the set (the standard library, unanalyzed module
// packages) contribute intrinsic effects at call sites but no nodes.
func BuildModule(pkgs []*Package) *Module {
	m := &Module{
		Pkgs:       append([]*Package(nil), pkgs...),
		byFunc:     make(map[*types.Func]*CGNode),
		byLit:      make(map[*ast.FuncLit]*CGNode),
		callees:    make(map[*ast.CallExpr][]*CGNode),
		ifaceImpls: make(map[*types.Func][]*CGNode),
	}
	for _, pkg := range pkgs {
		m.collectNodes(pkg)
		m.collectNamedTypes(pkg)
	}
	for _, n := range m.Nodes {
		m.collectEdges(n)
	}
	m.propagate()
	m.computeTaint()
	return m
}

// collectNodes creates a CGNode for every function declaration and literal
// in pkg, in source order, wiring literal Parent links via a push/pop walk
// (nodeStack-style: a nil Inspect event pops the innermost function).
func (m *Module) collectNodes(pkg *Package) {
	for _, file := range pkg.Files {
		var stack []*CGNode
		var fnNodes []ast.Node // the AST nodes matching stack entries
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			switch fn := n.(type) {
			case *ast.FuncDecl:
				obj, _ := pkg.Info.Defs[fn.Name].(*types.Func)
				node := &CGNode{Fn: obj, Decl: fn, Pkg: pkg, Label: declLabel(pkg, fn)}
				if obj != nil {
					m.byFunc[obj] = node
				}
				m.Nodes = append(m.Nodes, node)
				stack, fnNodes = pushFn(stack, fnNodes, node, n)
			case *ast.FuncLit:
				stack, fnNodes = popEnded(stack, fnNodes, n.Pos())
				var parent *CGNode
				if len(stack) > 0 {
					parent = stack[len(stack)-1]
				}
				label := pkg.Types.Name() + ".func$" + fmt.Sprint(pkg.Fset.Position(fn.Pos()).Line)
				if parent != nil {
					label = parent.Label + "$" + fmt.Sprint(pkg.Fset.Position(fn.Pos()).Line)
				}
				node := &CGNode{Lit: fn, Parent: parent, Pkg: pkg, Label: label}
				m.byLit[fn] = node
				m.Nodes = append(m.Nodes, node)
				stack, fnNodes = pushFn(stack, fnNodes, node, n)
			default:
				stack, fnNodes = popEnded(stack, fnNodes, n.Pos())
			}
			return true
		})
	}
}

func pushFn(stack []*CGNode, fnNodes []ast.Node, node *CGNode, n ast.Node) ([]*CGNode, []ast.Node) {
	stack, fnNodes = popEnded(stack, fnNodes, n.Pos())
	return append(stack, node), append(fnNodes, n)
}

// popEnded drops stack entries whose AST extent ended before pos —
// ast.Inspect's preorder visit makes this positional check equivalent to
// tracking pop events, without threading the nil-event bookkeeping through.
func popEnded(stack []*CGNode, fnNodes []ast.Node, pos token.Pos) ([]*CGNode, []ast.Node) {
	for len(fnNodes) > 0 && pos >= fnNodes[len(fnNodes)-1].End() {
		stack = stack[:len(stack)-1]
		fnNodes = fnNodes[:len(fnNodes)-1]
	}
	return stack, fnNodes
}

// declLabel renders "pkg.Func" or "pkg.(*T).Method" for diagnostics.
func declLabel(pkg *Package, fn *ast.FuncDecl) string {
	name := pkg.Types.Name() + "." + fn.Name.Name
	if fn.Recv != nil && len(fn.Recv.List) > 0 {
		recv := types.ExprString(fn.Recv.List[0].Type)
		name = pkg.Types.Name() + ".(" + recv + ")." + fn.Name.Name
	}
	return name
}

// collectNamedTypes gathers pkg's concrete named types for the interface
// method-set approximation.
func (m *Module) collectNamedTypes(pkg *Package) {
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() { // Names() is sorted: deterministic
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		m.namedTypes = append(m.namedTypes, named)
	}
}

// implsOf resolves an interface method to every module method that can be
// dispatched to it: for each module named type T implementing the
// interface, the corresponding method of T (or *T).
func (m *Module) implsOf(ifaceMethod *types.Func, iface *types.Interface) []*CGNode {
	if impls, ok := m.ifaceImpls[ifaceMethod]; ok {
		return impls
	}
	var impls []*CGNode
	name := ifaceMethod.Name()
	for _, named := range m.namedTypes {
		var recv types.Type
		if types.Implements(named, iface) {
			recv = named
		} else if types.Implements(types.NewPointer(named), iface) {
			recv = types.NewPointer(named)
		} else {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, ifaceMethod.Pkg(), name)
		if mf, ok := obj.(*types.Func); ok {
			if n := m.byFunc[mf]; n != nil {
				impls = append(impls, n)
			}
		}
	}
	sort.Slice(impls, func(i, j int) bool { return impls[i].Label < impls[j].Label })
	m.ifaceImpls[ifaceMethod] = impls
	return impls
}

// solver entry names shared with the intra-procedural lockheld check.
func isSolverEntryName(name string) bool { return solverEntryPoints[name] }

// collectEdges walks one node's body, recording call/ref edges and the
// node's direct effects. Nested function literals are skipped — they are
// their own nodes — but the edge to them is recorded with the kind their
// syntactic position implies.
func (m *Module) collectEdges(n *CGNode) {
	body := n.body()
	if body == nil {
		return
	}
	pkg := n.Pkg

	// funKind marks expressions that appear in call position, so a
	// function value used as call.Fun produces a call edge (of the go or
	// defer flavor when the call is the statement's immediate call) and
	// everything else produces a ref edge.
	funKind := make(map[ast.Expr]EdgeKind)
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			if _, ok := funKind[x.Fun]; !ok {
				funKind[unparen(x.Fun)] = EdgeCall
			}
		case *ast.GoStmt:
			funKind[unparen(x.Call.Fun)] = EdgeGo
		case *ast.DeferStmt:
			funKind[unparen(x.Call.Fun)] = EdgeDefer
		}
		return true
	})

	addEdge := func(callee *CGNode, kind EdgeKind, pos token.Pos, call *ast.CallExpr) {
		if callee == nil {
			return
		}
		n.Edges = append(n.Edges, CGEdge{Callee: callee, Kind: kind, Pos: pos})
		if call != nil {
			m.callees[call] = append(m.callees[call], callee)
		}
	}

	// callOf returns the enclosing call when e is in call position.
	kindOf := func(e ast.Expr) (EdgeKind, bool) {
		k, ok := funKind[e]
		return k, ok
	}

	paramObjs := n.paramSet()

	var walk func(x ast.Node)
	walk = func(x ast.Node) {
		ast.Inspect(x, func(c ast.Node) bool {
			switch c := c.(type) {
			case *ast.FuncLit:
				kind := EdgeRef
				var call *ast.CallExpr
				if k, ok := kindOf(c); ok {
					kind = k
					call = enclosingCall(n, c)
				}
				addEdge(m.byLit[c], kind, c.Pos(), call)
				return false // the literal's body is its own node
			case *ast.SendStmt:
				n.addDirect(EffBlock, c.Arrow, "channel send")
			case *ast.UnaryExpr:
				if c.Op == token.ARROW {
					n.addDirect(EffBlock, c.OpPos, "channel receive")
				}
			case *ast.SelectStmt:
				n.addDirect(EffBlock, c.Select, "select")
			case *ast.GoStmt:
				n.addDirect(EffGo, c.Go, "go statement")
			case *ast.RangeStmt:
				if isMapExpr(pkg, c.X) && mapRangeLeaky(pkg, body, c) {
					n.addDirect(EffMapIter, c.For, "order-leaking range over map "+exprString(c.X))
				}
			case *ast.AssignStmt:
				for _, lhs := range c.Lhs {
					n.checkStateWrite(lhs, paramObjs)
				}
			case *ast.IncDecStmt:
				n.checkStateWrite(c.X, paramObjs)
			case *ast.Ident:
				m.identEdge(n, c, kindOf, addEdge)
			case *ast.SelectorExpr:
				m.selectorEdge(n, c, kindOf, addEdge)
				// Still descend: c.X may contain calls.
			case *ast.CallExpr:
				// Intrinsic effects of resolved non-module callees, plus
				// the name-based solver-entry net for dynamic calls.
				m.callEffects(n, c)
			}
			return true
		})
	}
	walk(body)

	// Selector walks descend into sel.Sel as a bare Ident too; dedupe
	// edges so a method referenced once is recorded once.
	n.Edges = dedupeEdges(n.Edges)
}

// identEdge handles a bare identifier that names a function.
func (m *Module) identEdge(n *CGNode, id *ast.Ident, kindOf func(ast.Expr) (EdgeKind, bool), addEdge func(*CGNode, EdgeKind, token.Pos, *ast.CallExpr)) {
	fn, ok := n.Pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	callee := m.byFunc[fn]
	if callee == nil {
		return
	}
	if kind, ok := kindOf(id); ok {
		addEdge(callee, kind, id.Pos(), enclosingCall(n, id))
		return
	}
	// Method selections visit their Sel ident too; those are handled (with
	// interface resolution) by selectorEdge. A bare Ident use of a method
	// name cannot happen outside a selector, so only package-level
	// functions arrive here as values.
	if fn.Type() != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return // handled by selectorEdge
		}
	}
	addEdge(callee, EdgeRef, id.Pos(), nil)
}

// selectorEdge handles x.M in call or value position, resolving interface
// dispatch to the module method-set approximation.
func (m *Module) selectorEdge(n *CGNode, sel *ast.SelectorExpr, kindOf func(ast.Expr) (EdgeKind, bool), addEdge func(*CGNode, EdgeKind, token.Pos, *ast.CallExpr)) {
	fn, ok := n.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	kind := EdgeRef
	var call *ast.CallExpr
	if k, ok := kindOf(sel); ok {
		kind = k
		call = enclosingCall(n, sel)
	}
	if selection := n.Pkg.Info.Selections[sel]; selection != nil && selection.Kind() == types.MethodVal {
		if recv := selection.Recv(); recv != nil && types.IsInterface(recv) {
			iface, _ := recv.Underlying().(*types.Interface)
			if iface != nil {
				for _, impl := range m.implsOf(fn, iface) {
					addEdge(impl, kind, sel.Pos(), call)
				}
			}
			return
		}
	}
	addEdge(m.byFunc[fn], kind, sel.Pos(), call)
}

// enclosingCall finds the CallExpr whose Fun is e, searching the node body.
// funKind guarantees e is in call position; the call itself is recovered by
// a positional walk (cheap: bodies are small relative to the module).
func enclosingCall(n *CGNode, e ast.Expr) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(n.body(), func(c ast.Node) bool {
		if found != nil {
			return false
		}
		if call, ok := c.(*ast.CallExpr); ok && unparen(call.Fun) == e {
			found = call
			return false
		}
		return true
	})
	return found
}

// callEffects records the intrinsic effects of one call site: standard
// library behavior the analyzers care about, and the name-based solver
// entry net that also covers dynamic calls.
func (m *Module) callEffects(n *CGNode, call *ast.CallExpr) {
	pkg := n.Pkg
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			m.intrinsic(n, call, fn)
			if isSolverEntryName(fn.Name()) {
				n.addDirect(EffSolver, call.Pos(), "solver entry point "+fn.Name())
			}
		}
	case *ast.SelectorExpr:
		if isSolverEntryName(fun.Sel.Name) {
			n.addDirect(EffSolver, call.Pos(), "solver entry point "+fun.Sel.Name)
		}
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			m.intrinsic(n, call, fn)
		} else if sel := pkg.Info.Selections[fun]; sel == nil {
			// Unresolved dynamic call (function-typed field/var): optimistic.
		}
	}
}

// intrinsic folds the effect of a resolved standard-library (or otherwise
// external) function into n's direct effects. Module-internal callees are
// handled through graph edges instead.
func (m *Module) intrinsic(n *CGNode, call *ast.CallExpr, fn *types.Func) {
	if m.byFunc[fn] != nil {
		return // module function: effects flow through its summary
	}
	if fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	name := fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	recv := ""
	if sig != nil && sig.Recv() != nil {
		recv = sig.Recv().Type().String()
	}
	pos := call.Pos()
	switch path {
	case "time":
		switch name {
		case "Now", "Since", "Until", "After", "Tick", "NewTimer", "NewTicker":
			n.addDirect(EffClock, pos, "time."+name)
		}
	case "math/rand", "math/rand/v2":
		if recv == "" {
			switch name {
			case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
				// Explicitly seeded constructors: the repo's deterministic
				// idiom. detsource tracks taint through the seed itself.
			default:
				n.addDirect(EffRand, pos, "math/rand."+name+" (process-global generator)")
			}
		}
	case "os":
		switch name {
		case "Getenv", "LookupEnv", "Environ", "Hostname", "UserHomeDir", "UserConfigDir", "UserCacheDir":
			n.addDirect(EffEnv, pos, "os."+name)
		case "Rename":
			n.addDirect(EffFS|EffFsync, pos, "os.Rename")
		case "Open", "OpenFile", "Create", "CreateTemp", "ReadFile", "WriteFile", "ReadDir",
			"Stat", "Lstat", "Mkdir", "MkdirAll", "MkdirTemp", "Remove", "RemoveAll",
			"Truncate", "Chmod", "Getwd", "TempDir", "Symlink", "Link", "ReadLink":
			n.addDirect(EffFS, pos, "os."+name)
		case "Sync":
			if strings.Contains(recv, "os.File") {
				n.addDirect(EffFS|EffFsync, pos, "(*os.File).Sync")
			}
		case "Read", "Write", "WriteString", "WriteAt", "ReadAt", "Close", "Seek", "Readdir":
			if strings.Contains(recv, "os.File") {
				n.addDirect(EffFS, pos, "(*os.File)."+name)
			}
		}
	case "path/filepath":
		switch name {
		case "Walk", "WalkDir", "Glob", "Abs", "EvalSymlinks":
			n.addDirect(EffFS, pos, "filepath."+name)
		}
	case "sync":
		switch name {
		case "Lock", "RLock", "TryLock", "TryRLock":
			if strings.Contains(recv, "Mutex") {
				n.addDirect(EffLock, pos, exprString(call.Fun)+"()")
			}
		case "Wait":
			if strings.Contains(recv, "WaitGroup") {
				n.addDirect(EffBlock, pos, "sync.WaitGroup.Wait")
			}
			// sync.Cond.Wait releases its locker while waiting: exempt,
			// matching the intra-procedural lockheld rule.
		}
	}
}

// paramSet collects the objects writes through which count as
// EffParamWrite: parameters and receiver of pointer/slice/map type. For
// literals, captured variables are detected positionally in checkStateWrite.
func (n *CGNode) paramSet() map[types.Object]bool {
	params := make(map[types.Object]bool)
	addField := func(field *ast.Field) {
		for _, name := range field.Names {
			if obj := n.Pkg.Info.ObjectOf(name); obj != nil {
				switch obj.Type().Underlying().(type) {
				case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
					params[obj] = true
				}
			}
		}
	}
	ft := n.funcType()
	if ft.Params != nil {
		for _, f := range ft.Params.List {
			addField(f)
		}
	}
	if n.Decl != nil && n.Decl.Recv != nil {
		for _, f := range n.Decl.Recv.List {
			addField(f)
		}
	}
	return params
}

// checkStateWrite records EffParamWrite when lhs writes through a
// parameter, the receiver, a captured variable, or a package variable.
func (n *CGNode) checkStateWrite(lhs ast.Expr, params map[types.Object]bool) {
	base := unparen(lhs)
	indirect := false
	for {
		switch x := base.(type) {
		case *ast.StarExpr:
			indirect = true
			base = unparen(x.X)
		case *ast.IndexExpr:
			indirect = true
			base = unparen(x.X)
		case *ast.SelectorExpr:
			indirect = true
			base = unparen(x.X)
		default:
			goto resolved
		}
	}
resolved:
	id, ok := base.(*ast.Ident)
	if !ok {
		return
	}
	obj := n.Pkg.Info.ObjectOf(id)
	if obj == nil {
		return
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return
	}
	switch {
	case params[obj] && indirect:
		n.addDirect(EffParamWrite, lhs.Pos(), "write through parameter "+id.Name)
	case obj.Parent() == n.Pkg.Types.Scope():
		n.addDirect(EffParamWrite, lhs.Pos(), "write to package variable "+id.Name)
	case n.Lit != nil && !declaredWithin(v, n.Lit):
		// Captured variable of a closure. Plain rebinding counts too: the
		// write is visible to the enclosing function.
		n.addDirect(EffParamWrite, lhs.Pos(), "write to captured variable "+id.Name)
	}
}

// mapRangeLeaky reports whether a map range has order-dependent findings
// not covered by the collect-then-sort idiom — the same predicate
// rangemaporder diagnoses, reused for the EffMapIter summary bit.
func mapRangeLeaky(pkg *Package, encl *ast.BlockStmt, rs *ast.RangeStmt) bool {
	findings := collectRangeFindings(pkg, rs)
	if len(findings) == 0 {
		return false
	}
	for _, f := range findings {
		if f.obj == nil || !sortedAfter(pkg, encl, rs, f.obj) {
			return true
		}
	}
	return false
}

// dedupeEdges removes duplicate (callee, kind) pairs, keeping first
// positions, so repeated references do not balloon the graph.
func dedupeEdges(edges []CGEdge) []CGEdge {
	type key struct {
		callee *CGNode
		kind   EdgeKind
	}
	seen := make(map[key]bool, len(edges))
	out := edges[:0]
	for _, e := range edges {
		k := key{e.Callee, e.Kind}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, e)
	}
	return out
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

// propagate computes transitive summaries bottom-up over strongly
// connected components (Tarjan). SCCs complete in reverse topological
// order: when one is popped, every out-edge leads to an already-summarized
// component, so a single union per member suffices; within a component,
// members share the union of the whole cycle.
func (m *Module) propagate() {
	for _, n := range m.Nodes {
		n.index = -1
	}
	var (
		counter int
		stack   []*CGNode
		strong  func(n *CGNode)
	)
	strong = func(n *CGNode) {
		n.index = counter
		n.lowlink = counter
		counter++
		stack = append(stack, n)
		n.onStack = true
		for _, e := range n.Edges {
			c := e.Callee
			if c.index < 0 {
				strong(c)
				if c.lowlink < n.lowlink {
					n.lowlink = c.lowlink
				}
			} else if c.onStack && c.index < n.lowlink {
				n.lowlink = c.index
			}
		}
		if n.lowlink != n.index {
			return
		}
		// Pop the completed component and remember it: computeTaint walks
		// components in the same bottom-up order.
		var scc []*CGNode
		for {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			top.onStack = false
			scc = append(scc, top)
			if top == n {
				break
			}
		}
		m.sccs = append(m.sccs, scc)
		// Union of member directs and cross-component callee summaries.
		var sum Effect
		for _, member := range scc {
			sum |= member.Direct
		}
		inSCC := make(map[*CGNode]bool, len(scc))
		for _, member := range scc {
			inSCC[member] = true
		}
		for _, member := range scc {
			for _, e := range member.Edges {
				if inSCC[e.Callee] {
					continue
				}
				add := e.Callee.Summary & edgeMask(e.Kind)
				sum |= add
			}
		}
		for _, member := range scc {
			member.Summary = sum
			// Witnesses: a bit not already witnessed directly is justified
			// through the first edge whose callee supplies it.
			for _, en := range effectNames {
				if sum&en.bit == 0 || member.witness(en.bit) != nil {
					continue
				}
				for _, e := range member.Edges {
					if inSCC[e.Callee] {
						if e.Callee.Direct&en.bit != 0 {
							w := e.Callee.witness(en.bit)
							if w != nil {
								member.setWitness(en.bit, effectWitness{pos: w.pos, desc: w.desc, via: e.Callee})
								break
							}
						}
						continue
					}
					if e.Callee.Summary&edgeMask(e.Kind)&en.bit != 0 {
						w := e.Callee.witness(en.bit)
						desc := en.name
						pos := e.Pos
						if w != nil {
							desc, pos = w.desc, w.pos
						}
						member.setWitness(en.bit, effectWitness{pos: pos, desc: desc, via: e.Callee})
						break
					}
				}
			}
		}
	}
	for _, n := range m.Nodes {
		if n.index < 0 {
			strong(n)
		}
	}
}
