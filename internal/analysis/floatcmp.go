package analysis

import (
	"go/ast"
	"go/token"
)

// FloatCmp guards the tolerance discipline of the numerical code: exact
// ==/!= between two computed floating-point values is almost always a
// latent bug in a simplex/MIP codebase, where everything carries rounding
// error and the feasibility/optimality tolerances (simplex's feasTol and
// optTol, mip's intTol) define what "equal" means. Comparisons
// against a constant (x == 0 as an "unset option" or "zero coefficient"
// sentinel) are exact by construction and exempt, as are the designated
// tolerance helpers in internal/simplex, whose job is the exact fast path.
var FloatCmp = &Analyzer{
	Name: "floatcmp",
	Doc: "flag exact ==/!= between computed floating-point values outside " +
		"the designated tolerance helpers in internal/simplex",
	Run: runFloatCmp,
}

// tolHelperPkg and tolHelpers designate the functions allowed to compare
// floats exactly: the tolerance helpers themselves (their exact-equality
// fast path handles infinities and avoids the subtraction).
const tolHelperPkg = "simplex"

var tolHelpers = map[string]bool{"EqTol": true, "LeTol": true, "GeTol": true}

func runFloatCmp(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		var stack nodeStack
		ast.Inspect(file, func(n ast.Node) bool {
			if !stack.step(n) {
				return true
			}
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			info := pass.Pkg.Info
			if !isFloat(info.TypeOf(be.X)) && !isFloat(info.TypeOf(be.Y)) {
				return true
			}
			// A constant operand makes the comparison a deliberate sentinel
			// check (x == 0, gap != 1): exact by construction.
			if info.Types[be.X].Value != nil || info.Types[be.Y].Value != nil {
				return true
			}
			if fn := stack.enclosingFuncDecl(); fn != nil &&
				pass.Pkg.Types.Name() == tolHelperPkg && tolHelpers[fn.Name.Name] {
				return true
			}
			pass.Reportf(be.OpPos,
				"exact floating-point %s between computed values %s and %s; use simplex.EqTol or an explicit tolerance",
				be.Op, exprString(be.X), exprString(be.Y))
			return true
		})
	}
}
