// Command fragvet runs the repo's custom static-analysis suite (package
// internal/analysis) over the module's production code, one package at a
// time; _test.go files are not analyzed. See DESIGN.md §3.6 for the
// analyzer table.
//
// Usage:
//
//	fragvet [-list] [-json] [./...]
//	fragvet fragalloc/internal/core fragalloc/internal/mip
//
// With no arguments (or the ./... pattern) every package of the module is
// analyzed. Suppress an individual finding with an annotated reason:
//
//	//fragvet:ignore <analyzer> — <reason>
//
// Exit codes distinguish a dirty tree from a broken tool, so the Makefile
// can tell a regression from an infrastructure failure:
//
//	0  clean (no unsuppressed findings)
//	1  findings reported
//	2  load or internal error (parse/type-check failure, bad arguments)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"fragalloc/internal/analysis"
)

// jsonDiag is the one-object-per-line -json encoding of a diagnostic.
type jsonDiag struct {
	Analyzer     string `json:"analyzer"`
	File         string `json:"file"`
	Line         int    `json:"line"`
	Column       int    `json:"column"`
	Message      string `json:"message"`
	SuppressedBy string `json:"suppressed_by,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is fragvet's whole behaviour behind main, returning the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fragvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the registered analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit one JSON diagnostic object per line (including suppressed findings)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: fragvet [-list] [-json] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// fail reports a load or internal error: exit code 2, distinct from the
	// findings exit code 1, so CI can tell a broken tool from a dirty tree.
	fail := func(err error) int {
		fmt.Fprintln(stderr, "fragvet:", err)
		return 2
	}

	analyzers := analysis.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root, err := findModuleRoot()
	if err != nil {
		return fail(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		return fail(err)
	}
	paths, err := selectPackages(loader, fs.Args())
	if err != nil {
		return fail(err)
	}
	pkgs := make([]*analysis.Package, 0, len(paths))
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			return fail(err)
		}
		pkgs = append(pkgs, pkg)
	}

	diags := analysis.Run(pkgs, analyzers)
	enc := json.NewEncoder(stdout)
	findings := 0
	for _, d := range diags {
		pos := d.Pos
		if rel, err := filepath.Rel(root, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
		if d.SuppressedBy == "" {
			findings++
		}
		if *jsonOut {
			sup := d.SuppressedBy
			if rel, err := filepath.Rel(root, sup); err == nil && !strings.HasPrefix(rel, "..") {
				sup = rel
			}
			if err := enc.Encode(jsonDiag{
				Analyzer: d.Analyzer, File: pos.Filename, Line: pos.Line,
				Column: pos.Column, Message: d.Message, SuppressedBy: sup,
			}); err != nil {
				return fail(err)
			}
			continue
		}
		if d.SuppressedBy != "" {
			continue // human mode shows actionable findings only
		}
		fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "fragvet: %d diagnostic(s)\n", findings)
		return 1
	}
	return 0
}

// selectPackages resolves the command-line arguments to module import
// paths. "./..." (or nothing) means the whole module; other arguments may
// be import paths or module-relative directories.
func selectPackages(loader *analysis.Loader, args []string) ([]string, error) {
	all, err := loader.ModulePackages()
	if err != nil {
		return nil, err
	}
	if len(args) == 0 {
		return all, nil
	}
	var paths []string
	for _, arg := range args {
		if arg == "./..." || arg == "..." || arg == loader.ModulePath+"/..." {
			return all, nil
		}
		paths = append(paths, resolveArg(loader, arg))
	}
	return paths, nil
}

// resolveArg maps one argument to an import path: already-qualified paths
// pass through, directory-ish arguments ("./internal/core", "internal/core")
// are joined onto the module path.
func resolveArg(loader *analysis.Loader, arg string) string {
	if arg == loader.ModulePath || strings.HasPrefix(arg, loader.ModulePath+"/") {
		return arg
	}
	rel := strings.TrimPrefix(arg, "./")
	rel = strings.TrimSuffix(rel, "/")
	if rel == "" || rel == "." {
		return loader.ModulePath
	}
	return loader.ModulePath + "/" + filepath.ToSlash(rel)
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("fragvet: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
