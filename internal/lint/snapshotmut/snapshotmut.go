// Package snapshotmut locks in PR 8's immutability contract: a
// traffic.Snapshot is copy-on-write — once NextSnapshot returns it,
// its maps are shared by every reader holding the atomic pointer, and
// a single write tears the version history for all of them. The
// analyzer forbids writes to maps and slices reachable from a
// Snapshot anywhere outside the type's constructors (EmptySnapshot,
// NextSnapshot and patchSnapshot in busprobe/internal/core/traffic,
// the only functions that may touch a snapshot's maps before
// publication).
//
// One write after publication is sanctioned: the Rendered method's
// build-once memo of the snapshot's served bytes, which no reader can
// observe half-done (it sits behind a sync.Once) and which changes
// nothing a version means. The exemption is that method by name, in
// the defining package only — the memo field written from any other
// function is a finding like every other field.
//
// Reachability is tracked through the type checker plus a local taint
// walk, in source order within each function:
//
//   - a direct write through a snapshot field — s.Estimates[k] = v,
//     delete(s.RemovedAt, k), s.ChangedAt = … — is always a finding;
//   - an alias of a snapshot map (m := s.Estimates) taints the local
//     variable, and indexed writes or deletes through it are findings
//     until it is reassigned from something fresh (make, a clone
//     helper) — the copy-before-write idiom NextSnapshot itself uses;
//   - placing a map variable into a Snapshot composite literal taints
//     it in the other direction: &traffic.Snapshot{Estimates: m}
//     publishes m, so writes to m after that line are
//     mutations-after-publish, the classic construct-then-tweak bug.
//
// The taint is per-function and intentionally shallow: values
// returned from calls are never considered snapshot-backed (Snapshot
// accessors that expose maps, like CloneEstimates, return copies by
// contract, and that contract is the constructor's to keep).
package snapshotmut

import (
	"go/ast"
	"go/token"
	"go/types"

	"busprobe/internal/lint/analysis"
)

// Analyzer is the snapshotmut check.
var Analyzer = &analysis.Analyzer{
	Name: "snapshotmut",
	Doc: "flag writes to maps/slices reachable from a traffic.Snapshot " +
		"outside its constructors",
	Run: run,
}

// trafficPath is the defining package of Snapshot.
const trafficPath = "busprobe/internal/core/traffic"

// writers are the only functions allowed to write a snapshot's fields,
// and only inside the defining package: the three constructors,
// before publication, and the Rendered memo method after it.
var writers = map[string]bool{
	"EmptySnapshot": true,
	"NextSnapshot":  true,
	"patchSnapshot": true,
	"Rendered":      true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if pass.Path == trafficPath && writers[fn.Name.Name] {
				continue
			}
			checkFunc(pass, fn.Body)
		}
	}
	return nil
}

// checkFunc walks one function body in source order, maintaining the
// set of tainted local objects (variables aliasing snapshot-owned
// maps or published into a snapshot literal).
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	tainted := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			checkAssign(pass, x, tainted)
		case *ast.IncDecStmt:
			checkWriteTarget(pass, x.X, tainted, "incremented")
		case *ast.CallExpr:
			checkCall(pass, x, tainted)
		case *ast.CompositeLit:
			taintLiteral(pass, x, tainted)
		}
		return true
	})
}

// checkAssign flags writes through snapshot fields or tainted aliases
// and updates the taint set for plain variable assignments.
func checkAssign(pass *analysis.Pass, as *ast.AssignStmt, tainted map[types.Object]bool) {
	for _, lhs := range as.Lhs {
		checkWriteTarget(pass, lhs, tainted, "assigned")
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			continue
		}
		if aliasesSnapshot(pass, as.Rhs[i], tainted) {
			tainted[obj] = true
		} else if tainted[obj] {
			// Reassigned from something fresh — the copy-before-write
			// idiom. The alias no longer points into the snapshot.
			delete(tainted, obj)
		}
	}
}

// checkWriteTarget reports a write whose ultimate base is a snapshot
// field or a tainted alias. verb describes the write for the message.
func checkWriteTarget(pass *analysis.Pass, lhs ast.Expr, tainted map[types.Object]bool, verb string) {
	switch x := lhs.(type) {
	case *ast.IndexExpr:
		reportIfSnapshotBacked(pass, x.X, tainted, x.Pos(), verb+" through")
	case *ast.SelectorExpr:
		if isSnapshotExpr(pass, x.X) && !pass.Allowed(x.Pos(), "snapshotmut") {
			pass.Reportf(x.Pos(),
				"field %s of a traffic.Snapshot %s outside its constructor; snapshots are immutable once published — build a new one with NextSnapshot (or annotate //lint:allow snapshotmut <reason>)",
				analysis.ExprString(x), verb)
		}
	case *ast.StarExpr:
		checkWriteTarget(pass, x.X, tainted, verb)
	}
}

// checkCall flags delete() and append-into through snapshot-backed
// maps/slices.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, tainted map[types.Object]bool) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return
	}
	if obj := pass.TypesInfo.Uses[id]; obj == nil || obj.Pkg() != nil {
		return // not a builtin
	}
	if id.Name == "delete" {
		reportIfSnapshotBacked(pass, call.Args[0], tainted, call.Pos(), "deleted from")
	}
}

// reportIfSnapshotBacked reports a mutation through expr when expr is
// a snapshot field selector or a tainted alias.
func reportIfSnapshotBacked(pass *analysis.Pass, expr ast.Expr, tainted map[types.Object]bool, pos token.Pos, how string) {
	if pass.Allowed(pos, "snapshotmut") {
		return
	}
	switch x := expr.(type) {
	case *ast.SelectorExpr:
		if isSnapshotExpr(pass, x.X) {
			pass.Reportf(pos,
				"map owned by a traffic.Snapshot %s (%s) outside its constructor; snapshots are immutable once published — copy before writing (or annotate //lint:allow snapshotmut <reason>)",
				how, analysis.ExprString(x))
		}
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[x]
		if obj != nil && tainted[obj] {
			pass.Reportf(pos,
				"%s aliases a traffic.Snapshot map and is %s without copying first; snapshots are immutable once published (or annotate //lint:allow snapshotmut <reason>)",
				x.Name, how)
		}
	}
}

// aliasesSnapshot reports whether the RHS expression yields a
// reference into a snapshot's maps: a field selector on a snapshot
// value, or an already-tainted identifier.
func aliasesSnapshot(pass *analysis.Pass, rhs ast.Expr, tainted map[types.Object]bool) bool {
	switch x := rhs.(type) {
	case *ast.SelectorExpr:
		if !isSnapshotExpr(pass, x.X) {
			return false
		}
		tv, ok := pass.TypesInfo.Types[x]
		if !ok || tv.Type == nil {
			return false
		}
		switch tv.Type.Underlying().(type) {
		case *types.Map, *types.Slice:
			return true
		}
		return false
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[x]
		return obj != nil && tainted[obj]
	}
	return false
}

// taintLiteral marks map/slice variables placed into a Snapshot
// composite literal: the literal publishes them, so later writes are
// mutations of a published snapshot.
func taintLiteral(pass *analysis.Pass, lit *ast.CompositeLit, tainted map[types.Object]bool) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok || !isSnapshotType(tv.Type) {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		id, ok := kv.Value.(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			continue
		}
		switch obj.Type().Underlying().(type) {
		case *types.Map, *types.Slice:
			tainted[obj] = true
		}
	}
}

// isSnapshotExpr reports whether the expression's static type is
// traffic.Snapshot or a pointer to it.
func isSnapshotExpr(pass *analysis.Pass, x ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	return isSnapshotType(tv.Type)
}

// isSnapshotType peels pointers and reports whether t is the named
// type Snapshot from the traffic package.
func isSnapshotType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == trafficPath && obj.Name() == "Snapshot"
}
