// Package loader type-checks packages for the busprobe-vet suite with
// the standard library alone. The build environment vendors no
// third-party modules, so golang.org/x/tools/go/packages is
// unavailable; this package reproduces the slice of it the lint
// framework needs: resolve an import path to a checked *types.Package,
// from source for both the enclosing module's packages (resolved
// against go.mod) and the standard library (go/importer's "source"
// compiler — Go ships no precompiled stdlib export data since 1.20,
// so source is the only importer that works without driving the build
// cache).
//
// A Loader memoizes every package it checks, so the first unit pays
// the stdlib walk (a couple of seconds when net/http is in the import
// graph) and the rest of the module reuses it. All positions land in
// the Loader's single FileSet, which the analyzers rely on for
// file/line diagnostics. Loaders are not safe for concurrent use.
package loader

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Loader resolves import paths to type-checked packages.
type Loader struct {
	// Fset is the single FileSet every package the loader touches is
	// parsed into; diagnostics resolve positions against it.
	Fset *token.FileSet
	// Info, when set, accumulates the type information of every module
	// package the loader checks from source, so a whole-module scan can
	// resolve each use to its one declaration.
	Info *types.Info

	root    string // module root directory
	modPath string // module path from go.mod
	std     types.Importer
	pkgs    map[string]*types.Package
	loading map[string]bool
}

// New returns a Loader that resolves imports under modPath against the
// source tree rooted at root, and everything else through the standard
// library's source importer.
func New(fset *token.FileSet, root, modPath string) *Loader {
	return &Loader{
		Fset:    fset,
		root:    root,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*types.Package),
		loading: make(map[string]bool),
	}
}

// Func adapts a function to the types.Importer interface, for drivers
// that need to interpose on import resolution (the unit checker
// consults the go command's export-data tables first).
type Func func(path string) (*types.Package, error)

// Import implements types.Importer.
func (f Func) Import(path string) (*types.Package, error) { return f(path) }

// Import implements types.Importer: module-local paths are checked
// from source under the module root (non-test files only, as the go
// compiler would see the dependency), everything else is delegated to
// the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.inModule(path) {
		if l.loading[path] {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		l.loading[path] = true
		defer delete(l.loading, path)
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		pkg, err := l.checkDir(path, filepath.Join(l.root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		l.pkgs[path] = pkg
		return pkg, nil
	}
	return l.std.Import(path)
}

// inModule reports whether path names a package of the module.
func (l *Loader) inModule(path string) bool {
	return path == l.modPath || strings.HasPrefix(path, l.modPath+"/")
}

// checkDir parses the non-test Go files of one directory that the
// build constraints of the default build context select, and
// type-checks them as the package at path.
func (l *Loader) checkDir(path, dir string) (*types.Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("import %q: %w", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// MatchFile also drops the _ and . files the go command ignores.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, fmt.Errorf("import %q: %w", path, err)
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, fmt.Errorf("import %q: %w", path, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("import %q: no Go files in %s", path, dir)
	}
	cfg := &types.Config{Importer: l}
	return cfg.Check(path, l.Fset, files, l.Info)
}

// NewInfo returns a types.Info with every map allocated, ready to
// accumulate the results of one or more Checks.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Instances:  make(map[*ast.Ident]types.Instance),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// CheckPackage type-checks one package directory's already-parsed
// files the way `go test` compiles them: the base package (in-package
// _test.go files included) in one Check, then the external "_test"
// package, if present, in a second Check whose importer serves the
// freshly-checked base so its test-only symbols are visible. Both
// Checks fill the same returned Info, so an analysis pass sees type
// information for every file it was handed regardless of variant. The
// returned package is the base package (or the external test package
// when the directory holds nothing else).
func (l *Loader) CheckPackage(importPath string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := NewInfo()
	baseName := ""
	for _, f := range files {
		if !strings.HasSuffix(f.Name.Name, "_test") {
			baseName = f.Name.Name
		}
	}
	var base, xtest []*ast.File
	for _, f := range files {
		if strings.HasSuffix(f.Name.Name, "_test") && f.Name.Name != baseName {
			xtest = append(xtest, f)
		} else {
			base = append(base, f)
		}
	}
	var pkg *types.Package
	if len(base) > 0 {
		p, err := (&types.Config{Importer: l}).Check(importPath, l.Fset, base, info)
		if err != nil {
			return nil, nil, err
		}
		pkg = p
	}
	if len(xtest) > 0 {
		imp := l
		if pkg != nil {
			imp = l.testVariant(importPath, pkg, xtest)
		}
		p, err := (&types.Config{Importer: imp}).Check(importPath+"_test", l.Fset, xtest, info)
		if err != nil {
			return nil, nil, err
		}
		if pkg == nil {
			pkg = p
		}
	}
	return pkg, info, nil
}

// testVariant returns the loader an external test package of
// importPath is checked with, mirroring `go test`: importPath resolves
// to base, the package checked with its in-package tests, and every
// module package that imports importPath, directly or not, is checked
// again against base, so the test and its imports agree on one set of
// types. Every other package is shared with l.
func (l *Loader) testVariant(importPath string, base *types.Package, xtest []*ast.File) *Loader {
	for _, f := range xtest {
		for _, spec := range f.Imports {
			if path, err := strconv.Unquote(spec.Path.Value); err == nil && path != importPath {
				// Load what the test imports, to share what can be
				// shared; an error resurfaces in the test's own Check.
				_, _ = l.Import(path)
			}
		}
	}
	v := New(l.Fset, l.root, l.modPath)
	v.std = l.std
	v.pkgs[importPath] = base
	for path, p := range l.pkgs {
		if path != importPath && !l.importsPath(p, importPath, make(map[*types.Package]bool)) {
			v.pkgs[path] = p
		}
	}
	return v
}

// importsPath reports whether p imports the module package path,
// directly or through other module packages.
func (l *Loader) importsPath(p *types.Package, path string, seen map[*types.Package]bool) bool {
	for _, q := range p.Imports() {
		if q.Path() == path {
			return true
		}
		if !seen[q] && l.inModule(q.Path()) {
			seen[q] = true
			if l.importsPath(q, path, seen) {
				return true
			}
		}
	}
	return false
}

// ModuleRoot walks up from dir to the enclosing go.mod and returns the
// module's root directory and path.
func ModuleRoot(dir string) (root, modPath string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("go.mod in %s has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}
