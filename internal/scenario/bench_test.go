package scenario

import (
	"path/filepath"
	"testing"

	"fragalloc/internal/accounting"
	"fragalloc/internal/model"
)

// BenchmarkWorkloadIn times the workload-in leg on the accounting workload:
// generate it, draw the 200 out-of-sample scenarios accounting_cluster_k8
// evaluates on, SaveJSON both and load them back. To compare two commits,
// build a test binary at each with `go test -c` and run both with
// -test.run NONE -test.bench WorkloadIn -test.count 10.
func BenchmarkWorkloadIn(b *testing.B) {
	dir := b.TempDir()
	wPath, sPath := filepath.Join(dir, "workload.json"), filepath.Join(dir, "scenarios.json")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := accounting.Workload()
		ss := OutOfSample(w, 200, DefaultP, 1001)
		if err := model.SaveJSON(wPath, w); err != nil {
			b.Fatal(err)
		}
		if err := model.SaveJSON(sPath, ss); err != nil {
			b.Fatal(err)
		}
		if _, err := model.LoadWorkload(wPath); err != nil {
			b.Fatal(err)
		}
		if _, err := model.LoadScenarioSet(sPath); err != nil {
			b.Fatal(err)
		}
	}
}
