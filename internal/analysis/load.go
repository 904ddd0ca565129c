package analysis

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path (for fixture trees without a go.mod, the
	// root-relative directory).
	Path string
	// Dir is the root-relative directory, in slash form.
	Dir string
	// Files are the parsed non-test sources, in file-name order.
	Files []*ast.File
	// Types and Info hold the type-checking results.
	Types *types.Package
	Info  *types.Info
}

// Program is a set of packages loaded from one source root, plus the
// cross-package facts the analyzers consume.
type Program struct {
	// Root is the absolute directory all file names are relative to.
	Root string
	// Module is the module path from Root's go.mod ("" for fixture trees).
	Module string
	// Fset positions every loaded file, with root-relative names.
	Fset *token.FileSet
	// Packages are the explicitly requested packages, in request order —
	// the ones analyzers run over. Packages pulled in only as imports are
	// type-checked but not analyzed.
	Packages []*Package

	pkgs    map[string]*Package // by import path, including import-only loads
	stdlib  types.Importer
	ignores map[string]*fileIgnores // by root-relative file name
}

// Load parses and type-checks the packages in the given root-relative
// directories (plus their module-internal imports, recursively). Standard
// library imports are type-checked from source via go/importer, so the
// loader needs no pre-compiled export data.
func Load(root string, dirs []string) (*Program, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	prog := &Program{
		Root:    absRoot,
		Module:  readModulePath(filepath.Join(absRoot, "go.mod")),
		Fset:    fset,
		pkgs:    make(map[string]*Package),
		stdlib:  importer.ForCompiler(fset, "source", nil),
		ignores: make(map[string]*fileIgnores),
	}
	for _, dir := range dirs {
		pkg, err := prog.loadDir(filepath.ToSlash(dir))
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue // no non-test Go files
		}
		already := false
		for _, p := range prog.Packages {
			if p == pkg {
				already = true
			}
		}
		if !already {
			prog.Packages = append(prog.Packages, pkg)
		}
	}
	return prog, nil
}

// buildIncluded reports whether a source file's //go:build constraint (if
// any) selects it for the lint host. The loader lints the same file set
// the compiler would build here: GOOS/GOARCH tags match the running
// platform and every other tag (race, custom tags) is false, so exactly
// one file of a platform-gated pair is loaded and its fallback twin never
// collides with it during type checking. Only the constraint line is
// honoured — the repo's convention is an explicit //go:build on every
// gated file, so filename-suffix-only gating is not supported.
func buildIncluded(src []byte) bool {
	sc := bufio.NewScanner(bytes.NewReader(src))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if constraint.IsGoBuild(line) {
			expr, err := constraint.Parse(line)
			if err != nil {
				return true // malformed constraints are the compiler's problem
			}
			return expr.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH
			})
		}
		// The constraint must precede the package clause; stop at the
		// first line that can no longer be part of the file header.
		if line != "" && !strings.HasPrefix(line, "//") &&
			!strings.HasPrefix(line, "/*") && !strings.HasPrefix(line, "*") {
			break
		}
	}
	return true
}

// readModulePath extracts the module path from a go.mod, or returns "".
func readModulePath(gomod string) string {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// importPath maps a root-relative directory to its import path.
func (prog *Program) importPath(dir string) string {
	if prog.Module == "" {
		return dir
	}
	if dir == "." || dir == "" {
		return prog.Module
	}
	return prog.Module + "/" + dir
}

// relDir maps a module-internal import path back to a root-relative
// directory, reporting whether the path is module-internal.
func (prog *Program) relDir(path string) (string, bool) {
	if prog.Module == "" {
		return "", false
	}
	if path == prog.Module {
		return ".", true
	}
	if rest, ok := strings.CutPrefix(path, prog.Module+"/"); ok {
		return rest, true
	}
	return "", false
}

// loadDir parses and type-checks the package in one root-relative
// directory, memoized by import path. A directory with no non-test Go
// files yields (nil, nil).
func (prog *Program) loadDir(dir string) (*Package, error) {
	path := prog.importPath(dir)
	if pkg, ok := prog.pkgs[path]; ok {
		return pkg, nil
	}
	abs := filepath.Join(prog.Root, filepath.FromSlash(dir))
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		rel := name
		if dir != "." && dir != "" {
			rel = dir + "/" + name
		}
		src, err := os.ReadFile(filepath.Join(abs, name))
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		if !buildIncluded(src) {
			continue
		}
		f, err := parser.ParseFile(prog.Fset, rel, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		prog.ignores[rel] = scanIgnores(prog.Fset, f)
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	cfg := &types.Config{
		Importer: (*progImporter)(prog),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := cfg.Check(path, prog.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", path, typeErrs[0])
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	prog.pkgs[path] = pkg
	return pkg, nil
}

// progImporter resolves imports during type checking: module-internal
// paths recurse into loadDir; everything else (the standard library) goes
// through the source importer.
type progImporter Program

func (pi *progImporter) Import(path string) (*types.Package, error) {
	prog := (*Program)(pi)
	if dir, ok := prog.relDir(path); ok {
		pkg, err := prog.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("analysis: no Go files for import %q", path)
		}
		return pkg.Types, nil
	}
	return prog.stdlib.Import(path)
}

func (pi *progImporter) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	return pi.Import(path)
}

// FindPackageDirs expands a root-relative directory into the list of
// directories holding at least one non-test Go file, recursively,
// skipping testdata, hidden and underscore-prefixed directories. It is
// the driver's "./..." walker.
func FindPackageDirs(root, dir string) ([]string, error) {
	var dirs []string
	abs := filepath.Join(root, filepath.FromSlash(dir))
	err := filepath.WalkDir(abs, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != abs && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if len(dirs) == 0 || dirs[len(dirs)-1] != rel {
			dirs = append(dirs, rel)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}
