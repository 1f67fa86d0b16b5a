package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"busprobe/internal/lint/loader"
)

// TestNoTestOnlyExports keeps the exported functions and methods of
// internal/... honest: each one has a caller outside the tests (the
// binaries, the examples and the benchmark module count), or a row in
// testonly_allow.txt that names its role. An export only tests call is
// code the served pipeline carries for nothing; delete it, or allowlist
// it with the reason it stays.
func TestNoTestOnlyExports(t *testing.T) {
	root, modPath, err := loader.ModuleRoot("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range checkExports(t, root, modPath, "testonly_allow.txt") {
		t.Error(msg)
	}
}

// TestNoTestOnlyExportsFixture runs the check over a fixture module
// whose every case is known: a dead export, one only a _test.go file
// calls, one only its own body calls and a method no interface needs
// are flagged; a method a module or standard-library interface needs, a
// String method, an allowlisted export and an export outside internal/
// pass; and an allowlist row for an export that has a caller, or that
// no longer exists, is stale.
func TestNoTestOnlyExportsFixture(t *testing.T) {
	root, modPath, err := loader.ModuleRoot(filepath.Join("testdata", "exports", "cmd", "app"))
	if err != nil {
		t.Fatal(err)
	}
	got := checkExports(t, root, modPath, filepath.Join(root, "allow.txt"))
	const flagged = ": exported, but no non-test code calls it; delete it or allowlist it with its role"
	want := []string{
		"internal/dead/dead.go:10: internal/dead.Loop" + flagged,
		"internal/dead/dead.go:34: internal/dead.Square.Perimeter" + flagged,
		"internal/dead/dead.go:4: internal/dead.Dead" + flagged,
		"internal/dead/dead.go:7: internal/dead.TestOnly" + flagged,
		"stale allowlist row internal/dead.Gone: no such exported function or method",
		"stale allowlist row internal/dead.Used: it has a non-test caller",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// checkExports scans the module at root and returns one message per
// export with no non-test caller and no allowlist row, and one per
// allowlist row that is stale, sorted.
func checkExports(t *testing.T, root, modPath, allowFile string) []string {
	t.Helper()
	allow, err := readAllowlist(allowFile)
	if err != nil {
		t.Fatal(err)
	}
	exports, fset, err := scanExports(root, modPath)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for id, e := range exports {
		if _, ok := allow[id]; !ok && !e.called {
			pos := fset.Position(e.fn.Pos())
			file, err := filepath.Rel(root, pos.Filename)
			if err != nil {
				file = pos.Filename
			}
			out = append(out, fmt.Sprintf("%s:%d: %s: exported, but no non-test code calls it; delete it or allowlist it with its role",
				filepath.ToSlash(file), pos.Line, id))
		}
	}
	for id := range allow {
		if e, ok := exports[id]; !ok {
			out = append(out, fmt.Sprintf("stale allowlist row %s: no such exported function or method", id))
		} else if e.called {
			out = append(out, fmt.Sprintf("stale allowlist row %s: it has a non-test caller", id))
		}
	}
	sort.Strings(out)
	return out
}

// readAllowlist parses the allowlist: one "identifier role..." row a
// line, # comments and blank lines skipped. A row with no role is an
// error, since the role is the row's reason to exist.
func readAllowlist(name string) (map[string]string, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows := make(map[string]string)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		id, role, _ := strings.Cut(text, " ")
		if role = strings.TrimSpace(role); role == "" {
			return nil, fmt.Errorf("%s:%d: row %s names no role", name, line, id)
		}
		if _, dup := rows[id]; dup {
			return nil, fmt.Errorf("%s:%d: second row for %s", name, line, id)
		}
		rows[id] = role
	}
	return rows, sc.Err()
}

// export is one exported function or method under internal/.
type export struct {
	fn     *types.Func
	called bool
}

// scanExports type-checks the non-test files of every package of the
// module at root, the benchmark module under bench/ included (its
// busprobe imports resolve to this tree, as its replace directive
// says), and returns the exported functions and methods declared under
// internal/ (outside internal/lint), keyed "pkg.Func" or
// "pkg.Type.Method" with pkg relative to the module path. An export is
// called when some non-test code outside its own body refers to it, or,
// for a method, when its name is String, Error, Marshal* or Unmarshal*,
// or when an interface the module or a package it imports declares or
// uses needs it from its type or pointer type.
func scanExports(root, modPath string) (map[string]*export, *token.FileSet, error) {
	fset := token.NewFileSet()
	ld := loader.New(fset, root, modPath)
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	ld.Info = info
	var pkgs []*types.Package
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if !hasGoFiles(path) {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := modPath
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		p, err := ld.Import(importPath)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, p)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	exports := make(map[string]*export)
	byFunc := make(map[*types.Func]*export)
	declare := func(fn *types.Func, id string) {
		e := &export{fn: fn}
		exports[id], byFunc[fn] = e, e
	}
	for _, p := range pkgs {
		rel, ok := strings.CutPrefix(p.Path(), modPath+"/")
		if !ok || !strings.HasPrefix(rel, "internal/") || rel == "internal/lint" || strings.HasPrefix(rel, "internal/lint/") {
			continue
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					declare(obj, rel+"."+name)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						declare(m, rel+"."+name+"."+m.Name())
					}
				}
			}
		}
	}

	// Direct references: every use outside the export's own body.
	for ident, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		e := byFunc[fn.Origin()]
		if e == nil {
			continue
		}
		if body := e.fn.Scope(); body != nil && body.Pos() <= ident.Pos() && ident.Pos() < body.End() {
			continue
		}
		e.called = true
	}

	// Methods an interface needs, and the names fmt, errors and the
	// encoders call by convention.
	ifaces := interfacesByMethod(pkgs, info)
	for _, e := range exports {
		recvVar := e.fn.Type().(*types.Signature).Recv()
		if e.called || recvVar == nil {
			continue
		}
		name := e.fn.Name()
		if name == "String" || name == "Error" || strings.HasPrefix(name, "Marshal") || strings.HasPrefix(name, "Unmarshal") {
			e.called = true
			continue
		}
		recv := recvVar.Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, iface := range ifaces[name] {
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				e.called = true
				break
			}
		}
	}
	return exports, fset, nil
}

// interfacesByMethod indexes by method name every interface with
// methods that the module's code spells (named or literal), and every
// named interface a package the module imports, directly or not,
// declares. Generic interfaces are skipped: a method set with type
// parameters has no single type to implement it.
func interfacesByMethod(pkgs []*types.Package, info *types.Info) map[string][]*types.Interface {
	out := make(map[string][]*types.Interface)
	seen := make(map[*types.Interface]bool)
	add := func(t types.Type) {
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || seen[iface] || !iface.IsMethodSet() {
			return
		}
		seen[iface] = true
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			out[name] = append(out[name], iface)
		}
	}
	for _, tv := range info.Types {
		if tv.IsType() {
			add(tv.Type)
		}
	}
	visited := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range pkgs {
		walk(p)
	}
	return out
}

// hasGoFiles reports whether dir holds a non-test Go file the default
// build context selects (or one it cannot decide on, so that the
// loader reports why).
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || ok {
			return true
		}
	}
	return false
}
