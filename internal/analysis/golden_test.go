package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
)

// sharedLoader caches the (stdlib-heavy) type-checking work across the
// golden tests of all analyzers.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := filepath.Abs("../..")
		if err != nil {
			loaderErr = err
			return
		}
		loader, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return loader
}

// loadTestdata type-checks internal/analysis/testdata/<name> as a package.
func loadTestdata(t *testing.T, name string) *Package {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := testLoader(t).LoadDir(dir, "fragvet-testdata/"+name)
	if err != nil {
		t.Fatalf("loading testdata/%s: %v", name, err)
	}
	return pkg
}

var wantRE = regexp.MustCompile(`// want (.*)$`)
var wantStrRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// wantKey identifies a line in a testdata file.
type wantKey struct {
	file string
	line int
}

// parseWants extracts the `// want "regexp" ...` expectations from the
// package's source files, keyed by file and line.
func parseWants(t *testing.T, pkg *Package) map[wantKey][]*regexp.Regexp {
	t.Helper()
	wants := make(map[wantKey][]*regexp.Regexp)
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lines := regexp.MustCompile(`\r?\n`).Split(string(data), -1)
		for i, line := range lines {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := wantKey{file: name, line: i + 1}
			for _, sm := range wantStrRE.FindAllStringSubmatch(m[1], -1) {
				re, err := regexp.Compile(sm[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", name, i+1, sm[1], err)
				}
				wants[key] = append(wants[key], re)
			}
		}
	}
	return wants
}

// runGolden checks the analyzers' diagnostics on testdata/<name> against
// the file's // want comments: every diagnostic must match an expectation
// on its line and every expectation must be matched exactly once.
func runGolden(t *testing.T, name string, analyzers ...*Analyzer) {
	t.Helper()
	pkg := loadTestdata(t, name)
	diags := Run([]*Package{pkg}, analyzers)
	wants := parseWants(t, pkg)
	matched := make(map[wantKey][]bool)
	for key, res := range wants {
		matched[key] = make([]bool, len(res))
	}
	for _, d := range diags {
		if d.SuppressedBy != "" {
			continue // golden expectations cover actionable findings only
		}
		key := wantKey{file: d.Pos.Filename, line: d.Pos.Line}
		ok := false
		for i, re := range wants[key] {
			if !matched[key][i] && re.MatchString(d.Message) {
				matched[key][i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %v", d)
		}
	}
	for key, res := range wants {
		for i, re := range res {
			if !matched[key][i] {
				t.Errorf("%s:%d: no diagnostic matched want %q", key.file, key.line, re)
			}
		}
	}
}

func TestRangeMapOrderGolden(t *testing.T) { runGolden(t, "rangemaporder", RangeMapOrder) }
func TestFloatCmpGolden(t *testing.T)      { runGolden(t, "floatcmp", FloatCmp) }
func TestFloatCmpHelperExempt(t *testing.T) {
	runGolden(t, "floatcmp_helper", FloatCmp)
}
func TestAliasRetainGolden(t *testing.T) { runGolden(t, "aliasretain", AliasRetain) }
func TestLockHeldGolden(t *testing.T)    { runGolden(t, "lockheld", LockHeld) }
func TestCtxHookGolden(t *testing.T)     { runGolden(t, "ctxhook", CtxHook) }
func TestAtomicwriteGolden(t *testing.T) { runGolden(t, "atomicwrite", Atomicwrite) }
func TestSrvTimeoutGolden(t *testing.T)  { runGolden(t, "srvtimeout", SrvTimeout) }

// TestErrDropGolden checks the general rule, then the strict rule on a
// package whose import path ends in internal/checkpoint.
func TestErrDropGolden(t *testing.T) {
	runGolden(t, "errdrop", ErrDrop)
	runGolden(t, "errdrop/internal/checkpoint", ErrDrop)
}

// TestIgnoreDirectives exercises the suppression path with the full suite:
// valid annotations silence their analyzer, while empty reasons, missing
// separators, and unknown analyzer names are diagnostics themselves.
func TestIgnoreDirectives(t *testing.T) { runGolden(t, "ignore", Analyzers()...) }
