package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// FloatFlowConfig names the packages of the exactness invariant; every
// floatflow rule reads this one definition of an exact package.
type FloatFlowConfig struct {
	// ExactPackages hold the exact integer predicates. They must be
	// float-free, and so must every function they call.
	ExactPackages []string
	// FilterPackages hold the filtered predicates: float stages that
	// accept a sign only when certified, with an exact fallback.
	FilterPackages []string
	// FixedPackages are the sanctioned laundering points: a value
	// produced by a call into them is clean by definition (the fixed-
	// point transform is the paper's one blessed float→int boundary).
	FixedPackages []string
}

var defaultFloatFlow = &FloatFlowConfig{
	ExactPackages:  []string{"internal/exact"},
	FilterPackages: []string{"internal/exact/filter"},
	FixedPackages:  []string{"internal/fixed"},
}

// predicate reports whether path is an exact or filter package: a taint
// sink, and the only place an exact determinant's Sign() may be read.
func (c *FloatFlowConfig) predicate(path string) bool {
	return pathMatch(path, c.ExactPackages) || pathMatch(path, c.FilterPackages)
}

// taintFresh marks a value derived from a float expression regardless
// of what the caller passed in; bits 0..62 mark derivation from the
// function's parameters (receiver first), which callers resolve through
// the summary.
const taintFresh uint64 = 1 << 63

// floatSummary is one function's interprocedural taint behavior.
type floatSummary struct {
	// resTaint[i] is the taint mask of result i: taintFresh when the
	// result is float-derived no matter the arguments, param bits when
	// argument taint flows through.
	resTaint []uint64
	// sinkParams marks params that reach an exact-package sink inside
	// the function (directly or through further summaries).
	sinkParams uint64
	// ptrTaint marks pointer/slice/map params whose referent is
	// freshly float-tainted by a call.
	ptrTaint uint64
}

// FloatFlow enforces the paper's exactness invariant: the sign of a
// critical-point determinant comes from exact integer arithmetic, or
// from a filter stage that certified it. Four rules:
//
//  1. Exact packages are float-free: no float type, literal,
//     conversion, or arithmetic in them, nor in any function they
//     (transitively) call.
//  2. No float-derived value reaches an exact or filter entry point
//     except through a fixed package. The value itself is tracked —
//     through local variables, arithmetic, conversions, composites,
//     slices written by helpers, and across function boundaries via
//     call-graph summaries computed bottom-up over SCCs.
//  3. In a filter package, every call to a certified stage (an
//     unexported package-level function returning exactly (int, bool))
//     is consumed as `if s, ok := stage(...); ok { ... }`, and every
//     exported predicate named *Sign reaches an exact package.
//  4. Outside the exact and filter packages, nothing calls Sign() on a
//     type from an exact package: sign decisions route through the
//     filter, where they are certified and counted.
//
// Approximations of rule 2 (see DESIGN.md "Dataflow analysis"): taint
// does not propagate through booleans, channels between goroutines, or
// variables captured by function literals (literal bodies are analyzed
// with clean free variables); an unknown callee taints its result when
// any argument is tainted.
func FloatFlow(cfg *FloatFlowConfig) *Analyzer {
	if cfg == nil {
		cfg = defaultFloatFlow
	}
	return &Analyzer{
		Name: "floatflow",
		Doc:  "sign decisions stay exact: float-free exact packages, no float taint into predicates, certified filter stages",
		Run:  func(prog *Program) []Diagnostic { return runFloatFlow(prog, cfg) },
	}
}

type floatFlow struct {
	prog      *Program
	cfg       *FloatFlowConfig
	summaries map[*types.Func]*floatSummary
	diags     []Diagnostic
	report    bool
}

func runFloatFlow(prog *Program, cfg *FloatFlowConfig) []Diagnostic {
	ff := &floatFlow{prog: prog, cfg: cfg, summaries: map[*types.Func]*floatSummary{}}
	g := prog.CallGraph()

	// The exact, filter, and fixed packages are the sinks and the
	// sanitizer: taint tracking skips them, rules 1 and 3 audit them.
	analyzed := func(fn *types.Func) *funcDecl {
		fd := g.decls[fn]
		if fd == nil || fd.Decl.Body == nil || cfg.predicate(fd.Pkg.Path) || pathMatch(fd.Pkg.Path, cfg.FixedPackages) {
			return nil
		}
		return fd
	}

	// Pass 1: summaries, bottom-up over SCCs, each component iterated to
	// its own fixpoint so mutual recursion converges.
	for _, comp := range g.SCCs() {
		for changed := true; changed; {
			changed = false
			for _, fn := range comp {
				fd := analyzed(fn)
				if fd == nil {
					continue
				}
				old := ff.summaries[fn]
				ff.analyzeFunc(fn, fd)
				if !summaryEqual(old, ff.summaries[fn]) {
					changed = true
				}
			}
		}
	}

	// Pass 2: one reporting sweep with stable summaries.
	ff.report = true
	fns := make([]*types.Func, 0, len(g.decls))
	for fn := range g.decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })
	for _, fn := range fns {
		if fd := analyzed(fn); fd != nil {
			ff.analyzeFunc(fn, fd)
		}
	}

	// Rules 1, 3 and 4.
	var exactFns []*types.Func
	for _, fn := range fns {
		if pathMatch(g.decls[fn].Pkg.Path, cfg.ExactPackages) {
			exactFns = append(exactFns, fn)
		}
	}
	for _, pkg := range prog.Pkgs {
		switch {
		case pathMatch(pkg.Path, cfg.ExactPackages):
			for _, f := range pkg.Files {
				ff.floatUses(pkg, f, "exact package")
			}
		case pathMatch(pkg.Path, cfg.FilterPackages):
			ff.stageGuards(pkg)
			ff.fallbackReach(pkg, fns)
		default:
			ff.rawSignUses(pkg)
		}
	}
	parent := g.Reachable(exactFns)
	for _, fn := range fns {
		fd := g.decls[fn]
		if _, reached := parent[fn]; reached && fd.Decl.Body != nil && !pathMatch(fd.Pkg.Path, cfg.ExactPackages) {
			ff.floatUses(fd.Pkg, fd.Decl, fmt.Sprintf("call chain of exact predicate (%s)", pathTo(parent, fn)))
		}
	}
	return ff.diags
}

func summaryEqual(a, b *floatSummary) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.sinkParams != b.sinkParams || a.ptrTaint != b.ptrTaint || len(a.resTaint) != len(b.resTaint) {
		return false
	}
	for i := range a.resTaint {
		if a.resTaint[i] != b.resTaint[i] {
			return false
		}
	}
	return true
}

// paramObjs returns the function's receiver-then-params objects.
func paramObjs(fn *types.Func) []*types.Var {
	sig := fn.Type().(*types.Signature)
	var out []*types.Var
	if r := sig.Recv(); r != nil {
		out = append(out, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

func (ff *floatFlow) analyzeFunc(fn *types.Func, fd *funcDecl) {
	sum := &floatSummary{resTaint: make([]uint64, fn.Type().(*types.Signature).Results().Len())}
	params := paramObjs(fn)
	paramIdx := map[types.Object]int{}
	entry := flowFact{}
	for i, p := range params {
		if i < 62 {
			paramIdx[p] = i
			entry[types.Object(p)] = 1 << i
		}
		if typeHasFloat(p.Type()) {
			entry[types.Object(p)] |= taintFresh
		}
	}

	for ci, c := range funcCFGs(fd.Decl) {
		ent := flowFact{}
		if ci == 0 {
			ent = entry.clone()
		} else if lit, ok := c.fn.(*ast.FuncLit); ok {
			// Literal params: fresh taint for float types; free
			// variables start clean (documented under-approximation).
			for _, f := range lit.Type.Params.List {
				for _, name := range f.Names {
					if obj := fd.Pkg.Info.Defs[name]; obj != nil && typeHasFloat(obj.Type()) {
						ent[obj] = taintFresh
					}
				}
			}
		}
		spec := &flowSpec{
			join:     func(a, b uint64) uint64 { return a | b },
			transfer: func(f flowFact, n ast.Node) { ff.taintTransfer(fd.Pkg, sum, paramIdx, f, n) },
			visit:    func(f flowFact, n ast.Node) { ff.taintVisit(fd.Pkg, sum, f, n, ci == 0) },
		}
		c.run(spec, ent)
	}
	ff.summaries[fn] = sum
}

// taintTransfer applies one node's effect to the per-variable masks.
func (ff *floatFlow) taintTransfer(pkg *Package, sum *floatSummary, paramIdx map[types.Object]int, f flowFact, n ast.Node) {
	assign := func(lhs ast.Expr, mask uint64) {
		switch l := unparen(lhs).(type) {
		case *ast.Ident:
			if l.Name == "_" {
				return
			}
			if obj := identObj(pkg, l); obj != nil {
				f[obj] = mask
				// A fresh write through a pointer-typed parameter is
				// invisible to callers without the summary bit.
				if i, ok := paramIdx[obj]; ok && mask&taintFresh != 0 && indirect(obj.Type()) {
					sum.ptrTaint |= 1 << i
				}
			}
		default:
			// Field, index, or dereference target: weak update on the
			// root object.
			if obj := baseObj(pkg, lhs); obj != nil {
				nm := f[obj] | mask
				f[obj] = nm
				if i, ok := paramIdx[obj]; ok && mask&taintFresh != 0 {
					sum.ptrTaint |= 1 << i
				}
			}
		}
	}

	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
			mask := ff.exprTaint(pkg, f, n.Rhs[0])
			for _, l := range n.Lhs {
				assign(l, mask)
			}
			return
		}
		for i, l := range n.Lhs {
			if i < len(n.Rhs) {
				assign(l, ff.exprTaint(pkg, f, n.Rhs[i]))
			}
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				mask := uint64(0)
				if i < len(vs.Values) {
					mask = ff.exprTaint(pkg, f, vs.Values[i])
				} else if len(vs.Values) == 1 {
					mask = ff.exprTaint(pkg, f, vs.Values[0])
				}
				if typeOfIsFloat(pkg, name) {
					mask |= taintFresh
				}
				assign(name, mask)
			}
		}
	case *ast.RangeStmt:
		mask := ff.exprTaint(pkg, f, n.X)
		if n.Key != nil {
			assign(n.Key, 0) // indices are never data-tainted
		}
		if n.Value != nil {
			assign(n.Value, mask)
		}
	case *ast.ReturnStmt:
		for i, r := range n.Results {
			if i < len(sum.resTaint) {
				sum.resTaint[i] |= ff.exprTaint(pkg, f, r)
			} else if len(n.Results) == 1 {
				// return f() forwarding a tuple: spread the call taint.
				m := ff.exprTaint(pkg, f, r)
				for j := range sum.resTaint {
					sum.resTaint[j] |= m
				}
			}
		}
	default:
		// Statements evaluated for effect (ExprStmt, Send, guards...):
		// helper calls may taint pointer arguments via their summaries.
		inspectCFGNode(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				ff.applyPtrTaint(pkg, f, call)
			}
			return true
		})
	}
	// Pointer-taint effects of calls inside assignments too.
	if _, ok := n.(*ast.AssignStmt); ok {
		inspectShallow(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				ff.applyPtrTaint(pkg, f, call)
			}
			return true
		})
	}
}

// applyPtrTaint taints the roots of arguments a callee freshly writes
// float-derived data through.
func (ff *floatFlow) applyPtrTaint(pkg *Package, f flowFact, call *ast.CallExpr) {
	callee := calleeOf(pkg, call)
	if callee == nil {
		return
	}
	sum := ff.summaries[callee]
	if sum == nil || sum.ptrTaint == 0 {
		return
	}
	args := calleeArgs(pkg, call, callee)
	for i, a := range args {
		if i < 62 && sum.ptrTaint&(1<<i) != 0 && a != nil {
			if obj := baseObj(pkg, a); obj != nil {
				f[obj] |= taintFresh
			}
		}
	}
}

// calleeArgs aligns call arguments with the callee's receiver-first
// parameter indexing; a nil slot has no syntactic argument.
func calleeArgs(pkg *Package, call *ast.CallExpr, callee *types.Func) []ast.Expr {
	sig := callee.Type().(*types.Signature)
	var out []ast.Expr
	if sig.Recv() != nil {
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			if _, isSel := pkg.Info.Selections[sel]; isSel {
				out = append(out, sel.X)
			} else {
				out = append(out, nil)
			}
		} else {
			out = append(out, nil)
		}
	}
	out = append(out, call.Args...)
	return out
}

// taintVisit reports tainted values reaching exact sinks and records
// param→sink flows in the summary.
func (ff *floatFlow) taintVisit(pkg *Package, sum *floatSummary, f flowFact, n ast.Node, isDecl bool) {
	inspectCFGNode(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeOf(pkg, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		if ff.cfg.predicate(callee.Pkg().Path()) {
			for _, a := range call.Args {
				mask := ff.exprTaint(pkg, f, a)
				if mask&taintFresh != 0 {
					ff.diag(a.Pos(), fmt.Sprintf("float-derived value reaches exact predicate %s.%s; convert through internal/fixed",
						callee.Pkg().Name(), callee.Name()))
				}
				if isDecl {
					sum.sinkParams |= mask &^ taintFresh
				}
			}
			return true
		}
		if csum := ff.summaries[callee]; csum != nil && csum.sinkParams != 0 {
			args := calleeArgs(pkg, call, callee)
			for i, a := range args {
				if a == nil || i >= 62 || csum.sinkParams&(1<<i) == 0 {
					continue
				}
				mask := ff.exprTaint(pkg, f, a)
				if mask&taintFresh != 0 {
					ff.diag(a.Pos(), fmt.Sprintf("float-derived value reaches an exact predicate through %s; convert through internal/fixed",
						callee.Name()))
				}
				if isDecl {
					sum.sinkParams |= mask &^ taintFresh
				}
			}
		}
		return true
	})
}

// diag reports a finding (second pass only, so summary iteration never
// duplicates diagnostics).
func (ff *floatFlow) diag(pos token.Pos, msg string) {
	if !ff.report {
		return
	}
	ff.diags = append(ff.diags, Diagnostic{
		Pos:     ff.prog.Fset.Position(pos),
		Check:   "floatflow",
		Message: msg,
	})
}

// floatUses reports every float type, literal, conversion, or
// arithmetic operation under root (rule 1).
func (ff *floatFlow) floatUses(pkg *Package, root ast.Node, ctx string) {
	report := func(pos token.Pos, what string) {
		ff.diag(pos, fmt.Sprintf("%s in %s; sign-of-determinant chains must stay in exact integer arithmetic", what, ctx))
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BasicLit:
			if n.Kind == token.FLOAT {
				report(n.Pos(), "float literal")
			}
		case *ast.BinaryExpr:
			if isFloatExpr(pkg, n.X) || isFloatExpr(pkg, n.Y) {
				report(n.OpPos, fmt.Sprintf("float operation %q", n.Op))
				return false // one finding per expression tree
			}
		case *ast.CallExpr:
			if tv, ok := pkg.Info.Types[n.Fun]; ok && tv.IsType() && typeHasFloat(tv.Type) {
				report(n.Pos(), "conversion to float type")
				return false
			}
		case *ast.Field:
			if t, ok := pkg.Info.Types[n.Type]; ok && typeHasFloat(t.Type) {
				report(n.Type.Pos(), "float-typed declaration")
				return false
			}
		case *ast.ValueSpec:
			for _, name := range n.Names {
				if typeOfIsFloat(pkg, name) {
					report(name.Pos(), fmt.Sprintf("float-typed declaration of %s", name.Name))
				}
			}
		}
		return true
	})
}

// stageGuards enforces the first half of rule 3: a certified stage's
// sign is read only under its ok-guard, so an uncertified sign cannot
// leak into a return path.
func (ff *floatFlow) stageGuards(pkg *Package) {
	stageCall := func(call *ast.CallExpr) *types.Func {
		id, ok := unparen(call.Fun).(*ast.Ident)
		if !ok {
			return nil
		}
		fn, ok := pkg.Info.Uses[id].(*types.Func)
		if !ok || fn.Exported() || fn.Parent() != pkg.Types.Scope() {
			return nil
		}
		res := fn.Type().(*types.Signature).Results()
		if res.Len() == 2 && isBasicKind(res.At(0).Type(), types.Int) && isBasicKind(res.At(1).Type(), types.Bool) {
			return fn
		}
		return nil
	}
	for _, f := range pkg.Files {
		// Bless the calls written as `if s, ok := stage(...); ok { ... }`
		// (parents are visited first), then flag every other one.
		guarded := map[*ast.CallExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if ifs, ok := n.(*ast.IfStmt); ok {
				if asg, ok := ifs.Init.(*ast.AssignStmt); ok && len(asg.Lhs) == 2 && len(asg.Rhs) == 1 {
					okID, _ := asg.Lhs[1].(*ast.Ident)
					cond, _ := unparen(ifs.Cond).(*ast.Ident)
					call, _ := asg.Rhs[0].(*ast.CallExpr)
					if okID != nil && cond != nil && call != nil && identObj(pkg, okID) == pkg.Info.Uses[cond] {
						guarded[call] = true
					}
				}
			}
			call, ok := n.(*ast.CallExpr)
			if !ok || guarded[call] {
				return true
			}
			if fn := stageCall(call); fn != nil {
				ff.diag(call.Pos(), fmt.Sprintf("certified stage %s used outside its ok-guard; consume it as `if s, ok := %s(...); ok { ... }` so uncertified signs cannot leak",
					fn.Name(), fn.Name()))
			}
			return true
		})
	}
}

// fallbackReach enforces the second half of rule 3: deleting a sign
// predicate's exact fallback is a finding, not a silent behavior change.
func (ff *floatFlow) fallbackReach(pkg *Package, fns []*types.Func) {
	g := ff.prog.CallGraph()
	for _, root := range fns {
		fd := g.decls[root]
		if fd.Pkg != pkg || !root.Exported() || !strings.HasSuffix(root.Name(), "Sign") {
			continue
		}
		found := false
		for fn := range g.Reachable([]*types.Func{root}) {
			if d := g.decls[fn]; d != nil && pathMatch(d.Pkg.Path, ff.cfg.ExactPackages) {
				found = true
				break
			}
		}
		if !found {
			ff.diag(fd.Decl.Pos(), fmt.Sprintf("exported sign predicate %s never reaches an exact fallback; a filter may only accept via the exact path",
				root.Name()))
		}
	}
}

// rawSignUses enforces rule 4 in one package outside the exact and
// filter packages.
func (ff *floatFlow) rawSignUses(pkg *Package) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Sign" {
				return true
			}
			tv, ok := pkg.Info.Types[sel.X]
			if !ok || tv.Type == nil {
				return true
			}
			named, ok := derefType(tv.Type).(*types.Named)
			if !ok || named.Obj().Pkg() == nil || !pathMatch(named.Obj().Pkg().Path(), ff.cfg.ExactPackages) {
				return true
			}
			ff.diag(sel.Sel.Pos(), fmt.Sprintf("raw %s.Sign() outside the filtered predicate layer; route sign decisions through the filter package so they are certified and counted",
				named.Obj().Name()))
			return true
		})
	}
}

// exprTaint computes the taint mask of an expression under the current
// facts.
func (ff *floatFlow) exprTaint(pkg *Package, f flowFact, e ast.Expr) uint64 {
	if e == nil {
		return 0
	}
	mask := uint64(0)
	if isFloatExpr(pkg, e) {
		mask |= taintFresh
	}
	switch e := unparen(e).(type) {
	case *ast.Ident:
		if obj := identObj(pkg, e); obj != nil {
			mask |= f[obj]
		}
	case *ast.BasicLit:
		// the float-type check above covers float literals
	case *ast.BinaryExpr:
		if e.Op.IsOperator() && isComparison(e.Op.String()) {
			return 0 // booleans do not carry data taint
		}
		mask |= ff.exprTaint(pkg, f, e.X) | ff.exprTaint(pkg, f, e.Y)
	case *ast.UnaryExpr:
		mask |= ff.exprTaint(pkg, f, e.X)
	case *ast.StarExpr:
		mask |= ff.exprTaint(pkg, f, e.X)
	case *ast.IndexExpr:
		mask |= ff.exprTaint(pkg, f, e.X)
	case *ast.SliceExpr:
		mask |= ff.exprTaint(pkg, f, e.X)
	case *ast.SelectorExpr:
		if obj := pkg.Info.Uses[e.Sel]; obj != nil {
			if _, isField := pkg.Info.Selections[e]; !isField {
				// Package-qualified name: its own taint only.
				mask |= f[obj]
				return mask
			}
		}
		mask |= ff.exprTaint(pkg, f, e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			mask |= ff.exprTaint(pkg, f, el)
		}
	case *ast.TypeAssertExpr:
		mask |= ff.exprTaint(pkg, f, e.X)
	case *ast.CallExpr:
		mask |= ff.callTaint(pkg, f, e)
	case *ast.FuncLit:
		return 0
	}
	return mask
}

func (ff *floatFlow) callTaint(pkg *Package, f flowFact, call *ast.CallExpr) uint64 {
	// Conversions: T(x) keeps x's taint; conversion TO float is fresh by
	// the type rule in exprTaint's caller.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return ff.exprTaint(pkg, f, call.Args[0])
		}
		return 0
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "len", "cap", "make", "new":
			if pkg.Info.Uses[id] == nil || pkg.Info.Uses[id].Parent() == types.Universe {
				return 0
			}
		}
	}
	callee := calleeOf(pkg, call)
	if callee != nil && callee.Pkg() != nil {
		if pathMatch(callee.Pkg().Path(), ff.cfg.FixedPackages) {
			return 0 // the sanctioned float→fixed boundary
		}
		if sum := ff.summaries[callee]; sum != nil {
			args := calleeArgs(pkg, call, callee)
			out := uint64(0)
			for _, rt := range sum.resTaint {
				if rt&taintFresh != 0 {
					out |= taintFresh
				}
				for i, a := range args {
					if a != nil && i < 62 && rt&(1<<i) != 0 {
						out |= ff.exprTaint(pkg, f, a)
					}
				}
			}
			return out
		}
	}
	// Unknown callee (stdlib, function value): tainted args taint the
	// result.
	out := uint64(0)
	for _, a := range call.Args {
		out |= ff.exprTaint(pkg, f, a)
	}
	return out
}

// baseObj resolves the object whose storage an lvalue or argument
// expression roots in: dst[i], *p, s.f, and buf[lo:hi] all resolve to
// the base variable (package-qualified names resolve to the named
// object itself).
func baseObj(pkg *Package, e ast.Expr) types.Object {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return identObj(pkg, e)
	case *ast.SelectorExpr:
		if _, ok := pkg.Info.Selections[e]; ok {
			return baseObj(pkg, e.X)
		}
		return pkg.Info.Uses[e.Sel]
	case *ast.IndexExpr:
		return baseObj(pkg, e.X)
	case *ast.StarExpr:
		return baseObj(pkg, e.X)
	case *ast.UnaryExpr:
		return baseObj(pkg, e.X)
	case *ast.SliceExpr:
		return baseObj(pkg, e.X)
	}
	return nil
}

func identObj(pkg *Package, id *ast.Ident) types.Object {
	if obj := pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return pkg.Info.Defs[id]
}

func typeOfIsFloat(pkg *Package, id *ast.Ident) bool {
	obj := pkg.Info.Defs[id]
	return obj != nil && typeHasFloat(obj.Type())
}

// isFloatExpr reports whether e has floating-point type.
func isFloatExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isBasicKind reports whether t is the given basic kind.
func isBasicKind(t types.Type, kind types.BasicKind) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == kind
}

// typeHasFloat reports whether t contains a floating-point component
// (directly or through arrays, slices, structs, pointers, maps,
// channels, or function signatures).
func typeHasFloat(t types.Type) bool {
	seen := map[types.Type]bool{}
	var walk func(types.Type) bool
	walk = func(t types.Type) bool {
		if t == nil || seen[t] {
			return false
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Basic:
			return u.Info()&(types.IsFloat|types.IsComplex) != 0
		case *types.Array:
			return walk(u.Elem())
		case *types.Slice:
			return walk(u.Elem())
		case *types.Pointer:
			return walk(u.Elem())
		case *types.Map:
			return walk(u.Key()) || walk(u.Elem())
		case *types.Chan:
			return walk(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if walk(u.Field(i).Type()) {
					return true
				}
			}
		case *types.Signature:
			for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tup.Len(); i++ {
					if walk(tup.At(i).Type()) {
						return true
					}
				}
			}
		}
		return false
	}
	return walk(t)
}

// indirect reports whether writes through a value of this type are
// visible to the caller (pointer, slice, or map).
func indirect(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

func isComparison(op string) bool {
	switch op {
	case "==", "!=", "<", "<=", ">", ">=", "&&", "||":
		return true
	}
	return false
}
