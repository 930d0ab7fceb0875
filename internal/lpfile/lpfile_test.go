package lpfile

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"fragalloc/internal/simplex"
)

func sampleProblem() (*simplex.Problem, []int) {
	p := &simplex.Problem{}
	x := p.AddVar(0, 1, 2.5)          // binary
	y := p.AddVar(0, 7, -1)           // general integer
	z := p.AddVar(math.Inf(-1), 3, 0) // upper-bounded continuous
	f := p.AddVar(-2, math.Inf(1), 1) // lower-bounded continuous
	fixed := p.AddVar(2, 2, 0)        // fixed
	p.AddRow([]int{x, y}, []float64{1, -2}, simplex.LE, 4)
	p.AddRow([]int{y, z}, []float64{3, 1}, simplex.GE, -1)
	p.AddRow([]int{x, f, fixed}, []float64{1, 1, 1}, simplex.EQ, 2.5)
	return p, []int{x, y}
}

func TestWriteStructure(t *testing.T) {
	p, ints := sampleProblem()
	var buf bytes.Buffer
	if err := Write(&buf, p, ints, []string{"pick", "count"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Minimize",
		"obj: 2.5 pick - 1 count + 1 x3",
		"Subject To",
		"c0: 1 pick - 2 count <= 4",
		"c1: 3 count + 1 x2 >= -1",
		"c2: 1 pick + 1 x3 + 1 x4 = 2.5",
		"Bounds",
		"count <= 7",
		"-inf <= x2 <= 3",
		"x3 >= -2",
		"x4 = 2",
		"Binary",
		"pick",
		"General",
		"count",
		"End",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteBadInteger(t *testing.T) {
	p, _ := sampleProblem()
	var buf bytes.Buffer
	if err := Write(&buf, p, []int{99}, nil); err == nil {
		t.Error("want error for out-of-range integer index")
	}
}

func TestWriteInvalidProblem(t *testing.T) {
	p := &simplex.Problem{}
	p.AddVar(1, 0, 0) // inverted bounds
	var buf bytes.Buffer
	if err := Write(&buf, p, nil, nil); err == nil {
		t.Error("want error for invalid problem")
	}
}

func TestEmptyObjective(t *testing.T) {
	p := &simplex.Problem{}
	p.AddVar(0, 1, 0)
	p.AddRow([]int{0}, []float64{1}, simplex.LE, 1)
	var buf bytes.Buffer
	if err := Write(&buf, p, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "obj: 0 x0") {
		t.Errorf("zero objective not rendered:\n%s", buf.String())
	}
}

func TestRootModelExports(t *testing.T) {
	// The real allocation model must serialize without error and contain
	// the expected sections.
	p := &simplex.Problem{}
	var ints []int
	for j := 0; j < 30; j++ {
		v := p.AddVar(0, 1, float64(j))
		if j%3 == 0 {
			ints = append(ints, v)
		}
	}
	for r := 0; r < 12; r++ {
		p.AddRow([]int{r, r + 1, r + 2}, []float64{1, 1, -2}, simplex.Relation(r%3), float64(r))
	}
	var buf bytes.Buffer
	if err := Write(&buf, p, ints, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Binary") {
		t.Error("missing Binary section")
	}
}

// TestWriteRoundTripsNumbers checks that every number is written so that it
// parses back to the same float64: a value as objective coefficient, row
// coefficient, right-hand side and bound, each found bit-identical among the
// output's tokens.
func TestWriteRoundTripsNumbers(t *testing.T) {
	for _, v := range []float64{1.0 / 3, 3.0 / 7000, 1e-300} {
		p := &simplex.Problem{}
		x := p.AddVar(v, 1, v)
		p.AddRow([]int{x}, []float64{v}, simplex.LE, v)
		var buf bytes.Buffer
		if err := Write(&buf, p, nil, nil); err != nil {
			t.Fatal(err)
		}
		exact := 0
		for _, tok := range strings.Fields(buf.String()) {
			f, err := strconv.ParseFloat(tok, 64)
			switch {
			case err != nil:
			case math.Float64bits(f) == math.Float64bits(v):
				exact++
			case math.Abs(f-v) <= 1e-9*v:
				t.Errorf("%v written as %s, which parses back as %v", v, tok, f)
			}
		}
		if exact != 4 {
			t.Errorf("%v: %d tokens parse back to it exactly, want 4 (objective, coefficient, right-hand side, bound):\n%s", v, exact, buf.String())
		}
	}
}
