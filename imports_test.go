package fragalloc_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestProductionNeverLinksFaultInjection walks the imports of every package
// linked into the root package, the commands and the benchmark, and fails
// if one of them imports internal/faultinject: the fault injector is test
// machinery, and production reaches the file system through checkpoint.OS.
func TestProductionNeverLinksFaultInjection(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the import walk needs the go command: %v", err)
	}
	out, err := exec.Command(gobin, "list", "-deps", "-f", "{{.ImportPath}}{{range .Imports}} {{.}}{{end}}",
		".", "./cmd/...", "./bench").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	linked := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		pkg := strings.Fields(line)
		linked[pkg[0]] = true
		for _, imp := range pkg[1:] {
			if imp == "fragalloc/internal/faultinject" {
				t.Errorf("%s imports %s", pkg[0], imp)
			}
		}
	}
	// The walk must have reached the packages that once imported it.
	for _, pkg := range []string{"fragalloc/internal/service", "fragalloc/internal/checkpoint", "fragalloc/cmd/allocd"} {
		if !linked[pkg] {
			t.Errorf("the import walk never reached %s", pkg)
		}
	}
}
