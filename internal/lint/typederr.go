package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// TypedErrConfig scopes the typederr analyzer.
type TypedErrConfig struct {
	// BoundaryPackages are import-path suffixes of packages whose
	// errors cross subsystem boundaries (integrity, archive, mpi):
	// inside them, ad-hoc error construction in function bodies is a
	// finding — errors must be package-level sentinels, typed errors,
	// or wraps of either.
	BoundaryPackages []string
}

var defaultTypedErr = &TypedErrConfig{
	BoundaryPackages: []string{"internal/integrity", "internal/archive", "internal/mpi"},
}

// TypedErr enforces the PR 4 error-contract invariant: callers route on
// error identity (errors.Is/As against *IntegrityError, ErrCorrupt,
// mpi.ErrAborted) to distinguish corrupt data from an aborted machine
// from programmer errors, so an error that crosses the integrity,
// archive, or mpi boundary must stay matchable. Two rules:
//
//  1. Module-wide: fmt.Errorf that receives an error argument but whose
//     format has no %w verb flattens the cause into an opaque string —
//     errors.Is/As stop working downstream.
//  2. In boundary packages: errors.New or a non-wrapping fmt.Errorf
//     inside a function body mints an unmatchable one-off error; use a
//     package-level sentinel or typed error (optionally wrapped with
//     context) instead.
func TypedErr(cfg *TypedErrConfig) *Analyzer {
	if cfg == nil {
		cfg = defaultTypedErr
	}
	return &Analyzer{
		Name: "typederr",
		Doc:  "boundary errors must be typed, sentinel, or wrapped with %w",
		Run:  func(prog *Program) []Diagnostic { return runTypedErr(prog, cfg) },
	}
}

func runTypedErr(prog *Program, cfg *TypedErrConfig) []Diagnostic {
	var diags []Diagnostic
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

	for _, pkg := range prog.Pkgs {
		boundary := pathMatch(pkg.Path, cfg.BoundaryPackages)
		for _, f := range pkg.Files {
			// Track whether we are inside a function body: package-level
			// sentinel declarations (var ErrX = errors.New) are the
			// pattern this analyzer pushes toward.
			var walk func(n ast.Node, inFunc bool)
			walk = func(n ast.Node, inFunc bool) {
				if n == nil {
					return
				}
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body != nil {
						walk(n.Body, true)
					}
					return
				case *ast.CallExpr:
					diags = append(diags, checkErrCall(prog, pkg, n, errIface, boundary, inFunc)...)
				}
				for _, c := range childNodes(n) {
					walk(c, inFunc)
				}
			}
			walk(f, false)
		}
	}
	return diags
}

func checkErrCall(prog *Program, pkg *Package, call *ast.CallExpr, errIface *types.Interface, boundary, inFunc bool) []Diagnostic {
	callee := qualifiedCallee(pkg, call)
	switch callee {
	case "fmt.Errorf":
		if len(call.Args) == 0 {
			return nil
		}
		format, ok := constString(pkg, call.Args[0])
		wraps := ok && strings.Contains(format, "%w")
		var out []Diagnostic
		if !wraps {
			for _, arg := range call.Args[1:] {
				tv, ok := pkg.Info.Types[arg]
				if ok && tv.Type != nil && types.Implements(tv.Type, errIface) {
					out = append(out, Diagnostic{
						Pos:     prog.Fset.Position(call.Pos()),
						Check:   "typederr",
						Message: "fmt.Errorf flattens an error argument into a string; wrap the cause with %w so errors.Is/As keep working",
					})
					break
				}
			}
			if out == nil && boundary && inFunc {
				out = append(out, Diagnostic{
					Pos:     prog.Fset.Position(call.Pos()),
					Check:   "typederr",
					Message: "boundary package mints an unmatchable fmt.Errorf error; wrap a package sentinel with %w or use a typed error",
				})
			}
		}
		return out
	case "errors.New":
		if boundary && inFunc {
			return []Diagnostic{{
				Pos:     prog.Fset.Position(call.Pos()),
				Check:   "typederr",
				Message: "boundary package mints an unmatchable errors.New error inside a function; declare a package-level sentinel or typed error",
			}}
		}
	}
	return nil
}

// qualifiedCallee returns "pkg.Func" for a selector call on an imported
// package, or "" when the call is anything else.
func qualifiedCallee(pkg *Package, call *ast.CallExpr) string {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path() + "." + sel.Sel.Name
}

func constString(pkg *Package, e ast.Expr) (string, bool) {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// childNodes returns the direct AST children of n, in source order.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}
