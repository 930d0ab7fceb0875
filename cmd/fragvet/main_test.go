package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a one-package module "probe" in a fresh directory.
func writeModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":   "module probe\n\ngo 1.22\n",
		"probe.go": src,
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// chdir makes dir the working directory, where run looks for go.mod, until
// the test ends.
func chdir(t *testing.T, dir string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRunExitCodes pins fragvet's documented contract: 0 clean, 1 findings,
// 2 load error.
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name, src, stdout string
		code              int
	}{
		{"clean", "package probe\n\nfunc F(a, b float64) bool { return a < b }\n", "", 0},
		{"finding", "package probe\n\nfunc F(a, b float64) bool { return a == b }\n", "probe.go:3:38: floatcmp: ", 1},
		{"type error", "package probe\n\nfunc F() int { return \"x\" }\n", "", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			chdir(t, writeModule(t, tc.src))
			var stdout, stderr bytes.Buffer
			if code := run([]string{"./..."}, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, &stdout, &stderr)
			}
			if got := stdout.String(); !strings.HasPrefix(got, tc.stdout) || tc.stdout == "" && got != "" {
				t.Errorf("stdout = %q, want prefix %q", got, tc.stdout)
			}
		})
	}
}

// TestRunTestFileMethod runs fragvet over a module whose _test.go file
// declares a method on a package type. Type-checking test files into the
// loaded package used to panic inside go/types on exactly this.
func TestRunTestFileMethod(t *testing.T) {
	chdir(t, filepath.Join("testdata", "testmethod"))
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
}
