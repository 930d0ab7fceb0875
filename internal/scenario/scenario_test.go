package scenario

import (
	"math"
	"testing"

	"fragalloc/internal/model"
)

func tinyWorkload(q int) *model.Workload {
	w := &model.Workload{}
	w.Fragments = []model.Fragment{{ID: 0, Size: 1}}
	for j := 0; j < q; j++ {
		w.Queries = append(w.Queries, model.Query{ID: j, Fragments: []int{0}, Cost: 1, Frequency: 1})
	}
	return w
}

func TestInSampleBaseline(t *testing.T) {
	w := tinyWorkload(100)
	ss := InSample(w, 5, DefaultP, 42)
	if ss.S() != 5 {
		t.Fatalf("S = %d, want 5", ss.S())
	}
	for j, f := range ss.Frequencies[0] {
		if f != 1 {
			t.Fatalf("baseline scenario has f[%d] = %g, want 1", j, f)
		}
	}
	if err := ss.Validate(w); err != nil {
		t.Fatal(err)
	}
}

func TestSampleStatistics(t *testing.T) {
	w := tinyWorkload(20000)
	ss := OutOfSample(w, 1, DefaultP, 7)
	freq := ss.Frequencies[0]
	present := 0
	var sum float64
	for _, f := range freq {
		if f > 0 {
			present++
		}
		sum += f
	}
	frac := float64(present) / float64(len(freq))
	if math.Abs(frac-DefaultP) > 0.02 {
		t.Errorf("presence fraction %.3f, want ~%.2f", frac, DefaultP)
	}
	mean := sum / float64(len(freq))
	if math.Abs(mean-1) > 0.05 {
		t.Errorf("mean frequency %.3f, want ~1", mean)
	}
	var maxF float64
	for _, f := range freq {
		if f > maxF {
			maxF = f
		}
	}
	if maxF > 2/DefaultP+1e-9 {
		t.Errorf("max frequency %.3f exceeds 2/p", maxF)
	}
}

func TestDeterministicSeeds(t *testing.T) {
	w := tinyWorkload(50)
	a := OutOfSample(w, 3, DefaultP, 9)
	b := OutOfSample(w, 3, DefaultP, 9)
	for s := range a.Frequencies {
		for j := range a.Frequencies[s] {
			if a.Frequencies[s][j] != b.Frequencies[s][j] {
				t.Fatalf("scenario %d query %d differs for same seed", s, j)
			}
		}
	}
	c := OutOfSample(w, 3, DefaultP, 10)
	same := true
	for j := range a.Frequencies[0] {
		if a.Frequencies[0][j] != c.Frequencies[0][j] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical scenarios")
	}
}

func TestNeverAllZero(t *testing.T) {
	w := tinyWorkload(2)
	// With q=2 and many draws, all-zero samples would occur without the
	// guard; every scenario must carry load.
	ss := OutOfSample(w, 500, 0.3, 3)
	if err := ss.Validate(w); err != nil {
		t.Fatal(err)
	}
}

func TestPanics(t *testing.T) {
	w := tinyWorkload(3)
	assertPanic(t, func() { InSample(w, 0, DefaultP, 1) })
	assertPanic(t, func() { OutOfSample(w, 1, 0, 1) })
	assertPanic(t, func() { OutOfSample(w, 1, 1.5, 1) })
}

func assertPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
