// Package lpfile writes linear programs in the CPLEX LP text format, so the
// allocation models built by this repository can be exported and
// cross-checked with external solvers — notably Gurobi, which the
// reproduced paper used. The format is the de-facto interchange format
// understood by Gurobi, CPLEX, SCIP, HiGHS, glpk, and lp_solve.
package lpfile

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"

	"fragalloc/internal/simplex"
)

// Write serializes p in CPLEX LP format; p must pass Problem.Validate, so
// every variable has a finite bound. intVars lists the variables to
// declare in the Binary/General sections (they must have finite bounds;
// binaries are recognized by [0,1] bounds). names, if non-nil, supplies
// variable names by index; missing or empty entries fall back to x<i>.
func Write(w io.Writer, p *simplex.Problem, intVars []int, names []string) error {
	if err := p.Validate(); err != nil {
		return err
	}
	isInt := make([]bool, p.NumVars)
	for _, j := range intVars {
		if j < 0 || j >= p.NumVars {
			return fmt.Errorf("lpfile: integer variable %d outside [0,%d)", j, p.NumVars)
		}
		isInt[j] = true
	}
	name := func(j int) string {
		if j < len(names) && names[j] != "" {
			return names[j]
		}
		return fmt.Sprintf("x%d", j)
	}

	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "\\ generated by fragalloc (EDBT'21 fragment allocation reproduction)")
	fmt.Fprintln(bw, "Minimize")
	fmt.Fprint(bw, " obj:")
	wroteObj := false
	terms := 0
	for j := 0; j < p.NumVars; j++ {
		if p.Obj[j] == 0 {
			continue
		}
		// Wrap long expressions: the LP format allows line breaks anywhere
		// between tokens, and some parsers cap line lengths.
		if terms > 0 && terms%6 == 0 {
			fmt.Fprint(bw, "\n   ")
		}
		writeTerm(bw, p.Obj[j], name(j), !wroteObj)
		wroteObj = true
		terms++
	}
	if !wroteObj {
		fmt.Fprint(bw, " 0 "+name(0))
	}
	fmt.Fprintln(bw)

	fmt.Fprintln(bw, "Subject To")
	for r, row := range p.Rows {
		fmt.Fprintf(bw, " c%d:", r)
		first := true
		terms = 0
		for t, j := range row.Idx {
			if row.Coef[t] == 0 {
				continue
			}
			if terms > 0 && terms%6 == 0 {
				fmt.Fprint(bw, "\n   ")
			}
			writeTerm(bw, row.Coef[t], name(j), first)
			first = false
			terms++
		}
		if first {
			fmt.Fprintf(bw, " 0 %s", name(0))
		}
		switch p.Rel[r] {
		case simplex.LE:
			fmt.Fprintf(bw, " <= %s\n", num(p.RHS[r]))
		case simplex.GE:
			fmt.Fprintf(bw, " >= %s\n", num(p.RHS[r]))
		case simplex.EQ:
			fmt.Fprintf(bw, " = %s\n", num(p.RHS[r]))
		}
	}

	fmt.Fprintln(bw, "Bounds")
	for j := 0; j < p.NumVars; j++ {
		lb, ub := p.LB[j], p.UB[j]
		switch {
		case lb == 0 && math.IsInf(ub, 1):
			// LP-format default; omit.
		case math.IsInf(ub, 1):
			fmt.Fprintf(bw, " %s >= %s\n", name(j), num(lb))
		case math.IsInf(lb, -1):
			fmt.Fprintf(bw, " -inf <= %s <= %s\n", name(j), num(ub))
		//fragvet:ignore floatcmp — rendering a fixed variable: bounds set equal were stored from the same value, so exact equality holds
		case lb == ub:
			fmt.Fprintf(bw, " %s = %s\n", name(j), num(lb))
		default:
			fmt.Fprintf(bw, " %s <= %s <= %s\n", num(lb), name(j), num(ub))
		}
	}

	var binaries, generals []int
	for j := 0; j < p.NumVars; j++ {
		if !isInt[j] {
			continue
		}
		if p.LB[j] == 0 && p.UB[j] == 1 {
			binaries = append(binaries, j)
		} else {
			generals = append(generals, j)
		}
	}
	if len(binaries) > 0 {
		fmt.Fprintln(bw, "Binary")
		writeNameList(bw, binaries, name)
	}
	if len(generals) > 0 {
		fmt.Fprintln(bw, "General")
		writeNameList(bw, generals, name)
	}
	fmt.Fprintln(bw, "End")
	return bw.Flush()
}

// writeTerm emits "+ c name" / "- c name" with the sign folded in.
func writeTerm(w io.Writer, coef float64, name string, first bool) {
	sign := "+"
	if coef < 0 {
		sign = "-"
		coef = -coef
	}
	if first && sign == "+" {
		fmt.Fprintf(w, " %s %s", num(coef), name)
		return
	}
	fmt.Fprintf(w, " %s %s %s", sign, num(coef), name)
}

// num renders a float compactly without losing precision.
func num(v float64) string {
	//fragvet:ignore floatcmp — integrality test for compact formatting; v == Trunc(v) is the definition of "is an integer"
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeNameList emits names eight per line.
func writeNameList(w io.Writer, idx []int, name func(int) string) {
	for i, j := range idx {
		if i%8 == 0 {
			if i > 0 {
				fmt.Fprintln(w)
			}
			fmt.Fprint(w, " ")
		}
		fmt.Fprintf(w, " %s", name(j))
	}
	fmt.Fprintln(w)
}
