package core

import (
	"testing"

	"fragalloc/internal/mip"
	"fragalloc/internal/model"
	"fragalloc/internal/tpcds"
)

// TestTrimKeepsConservation is the regression test for the invalid incumbent
// allocd adopted at update 46 of the benchmark's drift stream at seed 9
// (TPC-DS, K=4, 2+2, F=64, four representatives): on that epoch's reduced
// scenario set (testdata, dumped from the daemon) the trim's final routing
// LP comes back "optimal" with a query routed twice, and the write-back
// used to replace a consistent solution with it.
func TestTrimKeepsConservation(t *testing.T) {
	w := tpcds.Workload()
	ss, err := model.LoadScenarioSet("testdata/drift9_epoch46_scenarios.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseChunks("2+2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Allocate(w, ss, 4, Options{
		Chunks: spec, FixedQueries: 64, Parallelism: 1,
		MIP: mip.Options{MaxNodes: 60, MaxStallNodes: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Allocation.Validate(w); err != nil {
		t.Errorf("allocation fails validation: %v", err)
	}
}
