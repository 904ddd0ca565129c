// Command fdlint runs the repository's domain static-analysis suite: five
// stdlib-only analyzers enforcing the invariants the paper's QoS results
// rely on (clock injection, lock discipline, atomic access consistency,
// telemetry nil-safety, duration unit hygiene).
//
//	fdlint ./...                    check the whole module
//	fdlint internal/core cmd/...    check selected directories
//	fdlint -run clockuse ./...      run a subset of analyzers
//	fdlint -list                    describe the analyzers
//
// Diagnostics print as file:line: analyzer: message. The exit status is 1
// when any diagnostic is reported, 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"wanfd/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("fdlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runList = fs.String("run", "", "comma-separated analyzer names to run (default: all)")
		list    = fs.Bool("list", false, "list the analyzers and exit")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: fdlint [-run analyzers] [-list] packages...")
		fmt.Fprintln(stderr, "packages are directories; a trailing /... recurses (testdata is skipped)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}

	analyzers := analysis.All
	if *runList != "" {
		analyzers = nil
		for _, name := range strings.Split(*runList, ",") {
			name = strings.TrimSpace(name)
			a := analysis.ByName(name)
			if a == nil {
				fmt.Fprintf(stderr, "fdlint: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "fdlint:", err)
		return 2
	}
	dirs, err := expandArgs(root, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "fdlint:", err)
		return 2
	}
	prog, err := analysis.Load(root, dirs)
	if err != nil {
		fmt.Fprintln(stderr, "fdlint:", err)
		return 2
	}
	diags := prog.Run(analyzers)
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "fdlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// findModuleRoot walks up from the working directory to the enclosing
// go.mod.
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
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// expandArgs turns the package arguments into root-relative directories;
// a trailing "/..." recurses.
func expandArgs(root string, args []string) ([]string, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	var dirs []string
	seen := make(map[string]bool)
	add := func(ds ...string) {
		for _, d := range ds {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	for _, arg := range args {
		recurse := false
		if arg == "..." || strings.HasSuffix(arg, "/...") {
			recurse = true
			arg = strings.TrimSuffix(strings.TrimSuffix(arg, "..."), "/")
			if arg == "" {
				arg = "."
			}
		}
		abs := arg
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(cwd, arg)
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("package %q is outside the module at %s", arg, root)
		}
		rel = filepath.ToSlash(rel)
		if recurse {
			ds, err := analysis.FindPackageDirs(root, rel)
			if err != nil {
				return nil, err
			}
			add(ds...)
		} else {
			add(rel)
		}
	}
	return dirs, nil
}
