// Package paperconst keeps the paper's canonical constants (Zhou et
// al., ICDCS 2015) defined in exactly one place each:
//
//	γ  = 2     fingerprint.DefaultGamma   (matching acceptance)
//	s₀ = 7     cluster.DefaultParams      (Eq. 1 co-clustering)
//	t₀ = 30 s  cluster.DefaultParams
//	ε  = 0.6   cluster.DefaultParams
//	b  = 0.5   traffic.DefaultModel       (Eq. 3 transit model)
//	T  = 300 s traffic.DefaultPeriodS     (map refresh period)
//
// Outside the defining packages, writing a numeric literal where one
// of these parameters is expected — cluster.Params{S0: 7, …},
// traffic.Model{B: 0.5}, fingerprint.NewDB(sc, 2, …),
// traffic.NewEstimator(m, 300, …) — re-states tuning that must happen
// in one place, and is flagged. Reference the named default instead.
// Test files are exempt (they sweep off-canon values deliberately), as
// are sites annotated //lint:allow paperconst <reason>.
package paperconst

import (
	"go/ast"
	"go/token"

	"busprobe/internal/lint/analysis"
)

// Analyzer is the paperconst check.
var Analyzer = &analysis.Analyzer{
	Name: "paperconst",
	Doc: "flag numeric literals that shadow the canonical paper " +
		"constants (γ, s₀, t₀, ε, b, T) outside their defining packages",
	Run: run,
}

// Defining packages own their constants and may spell them as
// literals.
var definingPkgs = map[string]bool{
	"busprobe/internal/core/cluster":     true,
	"busprobe/internal/core/fingerprint": true,
	"busprobe/internal/core/traffic":     true,
}

// paramFields maps a qualified composite-literal type to the keyed
// fields that carry paper constants, and the named default to use.
var paramFields = map[string]map[string]string{
	"busprobe/internal/core/cluster.Params": {
		"S0":      "cluster.DefaultParams()",
		"T0":      "cluster.DefaultParams()",
		"Epsilon": "cluster.DefaultParams()",
	},
	"busprobe/internal/core/traffic.Model": {
		"B": "traffic.DefaultModel()",
	},
}

// paramArgs maps a qualified constructor to the 0-based argument
// position that carries a paper constant, and the named default.
var paramArgs = map[string]struct {
	arg  int
	hint string
}{
	"busprobe/internal/core/fingerprint.NewDB":    {1, "fingerprint.DefaultGamma"},
	"busprobe/internal/core/traffic.NewEstimator": {1, "traffic.DefaultPeriodS"},
}

func run(pass *analysis.Pass) error {
	if definingPkgs[pass.Path] {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		imports := analysis.ImportAliases(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				checkComposite(pass, imports, x)
			case *ast.CallExpr:
				checkCall(pass, imports, x)
			}
			return true
		})
	}
	return nil
}

// qualifiedName resolves a selector expression like cluster.Params to
// "busprobe/internal/core/cluster.Params" via the file's imports.
func qualifiedName(imports map[string]string, e ast.Expr) string {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	path := imports[x.Name]
	if path == "" {
		return ""
	}
	return path + "." + sel.Sel.Name
}

func checkComposite(pass *analysis.Pass, imports map[string]string, lit *ast.CompositeLit) {
	fields := paramFields[qualifiedName(imports, lit.Type)]
	if fields == nil {
		return
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		hint, tracked := fields[key.Name]
		if !tracked || !isNumericLiteral(kv.Value) {
			continue
		}
		if pass.Allowed(kv.Pos(), "paperconst") {
			continue
		}
		pass.Reportf(kv.Pos(),
			"paper constant %s spelled as a literal outside its defining package; start from %s (or annotate //lint:allow paperconst <reason>)",
			key.Name, hint)
	}
}

func checkCall(pass *analysis.Pass, imports map[string]string, call *ast.CallExpr) {
	spec, ok := paramArgs[qualifiedName(imports, call.Fun)]
	if !ok || spec.arg >= len(call.Args) {
		return
	}
	arg := call.Args[spec.arg]
	if !isNumericLiteral(arg) || pass.Allowed(arg.Pos(), "paperconst") {
		return
	}
	pass.Reportf(arg.Pos(),
		"paper constant passed as a literal; use %s (or annotate //lint:allow paperconst <reason>)",
		spec.hint)
}

// isNumericLiteral matches 7, 0.6, and negated forms like -100.
func isNumericLiteral(e ast.Expr) bool {
	if u, ok := e.(*ast.UnaryExpr); ok {
		e = u.X
	}
	if b, ok := e.(*ast.BasicLit); ok {
		return b.Kind == token.INT || b.Kind == token.FLOAT
	}
	return false
}
