package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// PermitBalanceConfig scopes the permitbalance analyzer.
type PermitBalanceConfig struct {
	// Packages are the import-path suffixes analyzed for resource
	// balance.
	Packages []string
	// AcquireFuncs are the lowercase names of functions whose func-typed
	// result is a release obligation (the admission-control idiom:
	// release, err := s.adm.acquire(ctx)).
	AcquireFuncs []string
}

var defaultPermitBalance = &PermitBalanceConfig{
	Packages: []string{
		"internal/server", "internal/shm", "internal/pool",
		"internal/core", "internal/huffman", "internal/encoder", "internal/field",
	},
	AcquireFuncs: []string{"acquire", "admit"},
}

// PermitBalance checks that every acquired resource is released on
// every path out of the function, panic and error exits included. It
// runs the shared CFG dataflow engine over three acquire shapes, each an
// obligation keyed by its acquire site:
//
//   - release funcs: `release, err := acquire(ctx)` — the func value
//     must be invoked, deferred, or handed to the caller on every path;
//     the `err != nil` and `release == nil` guards drop the obligation
//     on their true edge.
//   - semaphore channels: `sem <- struct{}{}` acquires a slot that a
//     receive from the same channel retires. A function that sends and
//     then returns a func value is excused when the package receives
//     from that channel elsewhere (the release-closure idiom).
//   - pool gets: a sync.Pool Get must be Put back on every path, or
//     escape the function (returned, stored, sent, or passed on) to an
//     owner that the same package Puts back somewhere. A Get whose
//     result is discarded, or one that escapes from a package that
//     never Puts to that pool, is reported outright.
//
// A held obligation without a deferred release is also reported at
// every explicit panic it is live at.
func PermitBalance(cfg *PermitBalanceConfig) *Analyzer {
	if cfg == nil {
		cfg = defaultPermitBalance
	}
	return &Analyzer{
		Name: "permitbalance",
		Doc:  "acquired permits and pool values released on every path, panic exits included",
		Run:  func(prog *Program) []Diagnostic { return runPermitBalance(prog, cfg) },
	}
}

const (
	permitHeld     uint64 = 1
	permitReleased uint64 = 2
)

// obligation is one acquire site inside a function.
type obligation struct {
	site    ast.Node     // the acquiring statement (obligation key)
	pos     token.Pos    // report position
	kind    string       // "release func", "permit send", "pool Get"
	name    string       // what was acquired, for the message
	bound   types.Object // release-func value or pool element variable
	errObj  types.Object // error result assigned alongside a release func
	chanKey types.Object // semaphore channel identity (field or var object)
	pool    types.Object // pool root for Get/Put matching
}

func runPermitBalance(prog *Program, cfg *PermitBalanceConfig) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		if !pathMatch(pkg.Path, cfg.Packages) {
			continue
		}
		// Channels the package receives from and pools it Puts to
		// anywhere: release sites may live in another function, e.g. a
		// returned closure or the owning object's release method.
		pkgReleases := map[types.Object]bool{}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						pkgReleases[rootObj(pkg, n.X)] = true
					}
				case *ast.CallExpr:
					if pool, op := poolCall(pkg, n); pool != nil && op == "Put" {
						pkgReleases[pool] = true
					}
				}
				return true
			})
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				diags = append(diags, permitBalanceFunc(prog, pkg, fd, cfg, pkgReleases)...)
			}
		}
	}
	return diags
}

// isStructChan reports whether e is a chan struct{} — the semaphore
// shape; data channels carry values and are not permits.
func isStructChan(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok {
		return false
	}
	ch, ok := tv.Type.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// acquireFuncCall matches a call to a configured acquire function
// returning at least one func-typed result.
func acquireFuncCall(pkg *Package, call *ast.CallExpr, names []string) *types.Func {
	callee := calleeOf(pkg, call)
	if callee == nil {
		return nil
	}
	match := false
	for _, n := range names {
		if callee.Name() == n {
			match = true
		}
	}
	if !match {
		return nil
	}
	sig := callee.Type().(*types.Signature)
	for i := 0; i < sig.Results().Len(); i++ {
		if _, ok := sig.Results().At(i).Type().Underlying().(*types.Signature); ok {
			return callee
		}
	}
	return nil
}

func permitBalanceFunc(prog *Program, pkg *Package, fd *ast.FuncDecl, cfg *PermitBalanceConfig, pkgReleases map[types.Object]bool) []Diagnostic {
	// The enclosing function returning a func value is the signal for
	// the release-closure idiom (acquire here, release in the closure).
	returnsFunc := false
	if fd.Type.Results != nil {
		for _, r := range fd.Type.Results.List {
			if tv, ok := pkg.Info.Types[r.Type]; ok {
				if _, isFn := tv.Type.Underlying().(*types.Signature); isFn {
					returnsFunc = true
				}
			}
		}
	}

	var diags []Diagnostic
	for _, c := range funcCFGs(fd) {
		body := cfgBody(c)

		notRetained := func(get *ast.CallExpr, pool types.Object) {
			diags = append(diags, Diagnostic{
				Pos:     prog.Fset.Position(get.Pos()),
				Check:   "permitbalance",
				Message: fmt.Sprintf("pool Get %q result is not retained, so it can never be Put back", pool.Name()),
			})
		}

		// Collect this graph's obligations.
		var obs []*obligation
		obOf := map[ast.Node]*obligation{} // acquiring statement -> obligation
		inspectShallowStmts(body, func(stmt ast.Stmt) {
			switch s := stmt.(type) {
			case *ast.AssignStmt:
				for i, r := range s.Rhs {
					r = unparen(r)
					// v := p.Get().([]byte) — the Get hides behind the
					// type assertion.
					if ta, ok := r.(*ast.TypeAssertExpr); ok {
						r = unparen(ta.X)
					}
					call, ok := r.(*ast.CallExpr)
					if !ok {
						continue
					}
					if callee := acquireFuncCall(pkg, call, cfg.AcquireFuncs); callee != nil {
						ob := &obligation{site: s, pos: call.Pos(), kind: "release func", name: callee.Name()}
						// Bind the func-typed and error lhs. Single-call
						// tuple spread or 1:1 assign both land here.
						lhs := s.Lhs
						if len(s.Rhs) > 1 && i < len(lhs) {
							lhs = lhs[i : i+1]
						}
						for _, l := range lhs {
							id, ok := unparen(l).(*ast.Ident)
							if !ok || id.Name == "_" {
								continue
							}
							obj := identObj(pkg, id)
							if obj == nil {
								continue
							}
							if _, isFn := obj.Type().Underlying().(*types.Signature); isFn {
								ob.bound = obj
							} else if isErrType(obj.Type()) {
								ob.errObj = obj
							}
						}
						if ob.bound != nil {
							obs = append(obs, ob)
							obOf[s] = ob
						}
					}
					if pool, op := poolCall(pkg, call); pool != nil && op == "Get" {
						ob := &obligation{site: s, pos: call.Pos(), kind: "pool Get", name: pool.Name(), pool: pool}
						if i < len(s.Lhs) {
							if id, ok := unparen(s.Lhs[i]).(*ast.Ident); ok {
								if id.Name == "_" {
									notRetained(call, pool)
									continue
								}
								ob.bound = identObj(pkg, id)
							}
						}
						obs = append(obs, ob)
						obOf[s] = ob
					}
				}
			case *ast.ExprStmt:
				if call, ok := unparen(s.X).(*ast.CallExpr); ok {
					if pool, op := poolCall(pkg, call); pool != nil && op == "Get" {
						notRetained(call, pool)
					}
				}
			case *ast.SendStmt:
				if isStructChan(pkg, s.Chan) {
					if key := rootObj(pkg, s.Chan); key != nil {
						// The release-closure idiom: acquire here, release
						// in the func value this function hands back.
						if returnsFunc && pkgReleases[key] {
							return
						}
						ob := &obligation{site: s, pos: s.Arrow, kind: "permit send", name: chanName(s.Chan), chanKey: key}
						obs = append(obs, ob)
						obOf[s] = ob
					}
				}
			}
		})
		if len(obs) == 0 {
			continue
		}

		// Deferred releases cover every exit, panics included.
		deferredRelease := map[*obligation]bool{}
		deferScan := func(n ast.Node) {
			if ob := releasesWhich(pkg, n, obs); ob != nil {
				deferredRelease[ob] = true
			}
			if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				if key := rootObj(pkg, u.X); key != nil {
					for _, ob := range obs {
						if ob.chanKey != nil && ob.chanKey == key {
							deferredRelease[ob] = true
						}
					}
				}
			}
		}
		for _, d := range c.defers {
			deferScan(d.Call)
			if lit, ok := unparen(d.Call.Fun).(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(n ast.Node) bool {
					deferScan(n)
					return true
				})
			}
		}

		spec := &flowSpec{
			join: func(a, b uint64) uint64 { return a | b },
			transfer: func(f flowFact, n ast.Node) {
				if ob := obOf[n]; ob != nil {
					f[ob] = permitHeld
				}
				inspectCFGNode(n, func(m ast.Node) bool {
					if ob := releasesWhich(pkg, m, obs); ob != nil {
						f[ob] = permitReleased
					}
					// A receive retires every obligation on that channel.
					if u, ok := m.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
						if key := rootObj(pkg, u.X); key != nil {
							for _, ob := range obs {
								if ob.chanKey == key {
									f[ob] = permitReleased
								}
							}
						}
					}
					return true
				})
			},
			refine: func(f flowFact, cond ast.Expr, branch bool) {
				refinePermit(pkg, f, cond, branch, obs)
			},
			visit: func(f flowFact, n ast.Node) {
				// Panic exits: a held obligation without a deferred
				// release leaks when this statement panics.
				es, ok := n.(*ast.ExprStmt)
				if !ok {
					return
				}
				call, ok := unparen(es.X).(*ast.CallExpr)
				if !ok {
					return
				}
				if id, ok := unparen(call.Fun).(*ast.Ident); !ok || id.Name != "panic" {
					return
				}
				// held-bit set means SOME path reaches this panic still
				// holding — maybe-released (3) is still a leak there.
				for _, ob := range obs {
					if f[ob]&permitHeld != 0 && !deferredRelease[ob] {
						diags = append(diags, Diagnostic{
							Pos:     prog.Fset.Position(n.Pos()),
							Check:   "permitbalance",
							Message: fmt.Sprintf("%s %q still held at panic; defer the release", ob.kind, ob.name),
						})
					}
				}
			},
		}
		exit := c.run(spec, flowFact{})
		for _, ob := range obs {
			if exit[ob]&permitHeld != 0 && !deferredRelease[ob] {
				msg := fmt.Sprintf("%s %q is not released on every path out of %s", ob.kind, ob.name, fd.Name.Name)
				if ob.bound != nil && escapes(pkg, fd, ob.bound) {
					if ob.pool == nil || pkgReleases[ob.pool] {
						continue // handed to an owner: their obligation now
					}
					msg = fmt.Sprintf("pool Get %q result escapes, but nothing in this package ever Puts to the pool", ob.name)
				}
				diags = append(diags, Diagnostic{
					Pos:     prog.Fset.Position(ob.pos),
					Check:   "permitbalance",
					Message: msg,
				})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos.Line != diags[j].Pos.Line {
			return diags[i].Pos.Line < diags[j].Pos.Line
		}
		return diags[i].Pos.Column < diags[j].Pos.Column
	})
	return diags
}

// poolCall reports whether call is sync.Pool Get/Put, returning the
// pool's root object (the variable holding the pool) and "Get"/"Put".
func poolCall(pkg *Package, call *ast.CallExpr) (types.Object, string) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Get" && sel.Sel.Name != "Put") {
		return nil, ""
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok {
		return nil, ""
	}
	named, ok := derefType(s.Recv()).(*types.Named)
	if !ok || named.Obj().Pkg() == nil ||
		named.Obj().Pkg().Path() != "sync" || named.Obj().Name() != "Pool" {
		return nil, ""
	}
	return rootObj(pkg, sel.X), sel.Sel.Name
}

// escapes reports whether obj's value leaves the function: returned,
// assigned through a selector/index (struct field, map, global), placed
// in a composite literal, sent on a channel, or passed bare to a call
// that is not the pool Put and not a method on obj itself.
func escapes(pkg *Package, fd *ast.FuncDecl, obj types.Object) bool {
	esc := false
	isObj := func(e ast.Expr) bool {
		id, ok := unparen(e).(*ast.Ident)
		return ok && pkg.Info.Uses[id] == obj
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if esc {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if isObj(r) {
					esc = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if !isObj(rhs) || i >= len(n.Lhs) {
					continue
				}
				if _, ok := n.Lhs[i].(*ast.Ident); !ok {
					esc = true // field, index, or dereference target
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if isObj(el) {
					esc = true
				}
			}
		case *ast.SendStmt:
			if isObj(n.Value) {
				esc = true
			}
		case *ast.CallExpr:
			if _, kind := poolCall(pkg, n); kind == "Put" {
				return true
			}
			// Method call on obj itself does not transfer ownership.
			if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok && isObj(sel.X) {
				return true
			}
			for _, arg := range n.Args {
				if isObj(arg) {
					esc = true
				}
			}
		}
		return !esc
	})
	return esc
}

// releasesWhich reports the obligation a node discharges: a call of the
// bound release func, or a Put on the Get's pool.
func releasesWhich(pkg *Package, n ast.Node, obs []*obligation) *obligation {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return nil
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if obj := identObj(pkg, id); obj != nil {
			for _, ob := range obs {
				if ob.bound != nil && ob.bound == obj && ob.kind == "release func" {
					return ob
				}
			}
		}
	}
	if pool, op := poolCall(pkg, call); pool != nil && op == "Put" {
		for _, ob := range obs {
			if ob.pool == pool {
				return ob
			}
		}
	}
	return nil
}

// refinePermit drops obligations along the guard edges of the admission
// idiom: `if err != nil { return }` (acquire failed, nothing held) and
// `if release == nil { return }` (admit's failure contract).
func refinePermit(pkg *Package, f flowFact, cond ast.Expr, branch bool, obs []*obligation) {
	be, ok := unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return
	}
	var id *ast.Ident
	if l, ok := unparen(be.X).(*ast.Ident); ok {
		id = l
	} else if r, ok := unparen(be.Y).(*ast.Ident); ok {
		id = r
	}
	if id == nil || !isNilIdent(be, id) {
		return
	}
	obj := identObj(pkg, id)
	if obj == nil {
		return
	}
	// x != nil: failure on the FALSE edge for err, on the TRUE edge for
	// the release value; x == nil mirrors.
	failEdge := func(isErr bool) bool {
		neq := be.Op == token.NEQ
		if isErr {
			return branch == neq // err != nil true-edge / err == nil false-edge
		}
		return branch != neq // release == nil true-edge / release != nil false-edge
	}
	for _, ob := range obs {
		switch obj {
		case ob.errObj:
			if failEdge(true) {
				f[ob] = permitReleased
			}
		case ob.bound:
			if failEdge(false) {
				f[ob] = permitReleased
			}
		}
	}
}

// isNilIdent reports whether the binary expression compares id to nil.
func isNilIdent(be *ast.BinaryExpr, id *ast.Ident) bool {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return false
	}
	other := be.Y
	if unparen(be.X) != ast.Expr(id) {
		other = be.X
	}
	o, ok := unparen(other).(*ast.Ident)
	return ok && o.Name == "nil"
}

func isErrType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

func chanName(e ast.Expr) string {
	switch e := unparen(e).(type) {
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return "permit channel"
}

// cfgBody returns the function body the cfg was built from.
func cfgBody(c *cfg) *ast.BlockStmt {
	switch fn := c.fn.(type) {
	case *ast.FuncDecl:
		return fn.Body
	case *ast.FuncLit:
		return fn.Body
	}
	return nil
}

// inspectShallowStmts visits every statement of a body without entering
// nested function literals.
func inspectShallowStmts(body *ast.BlockStmt, visit func(ast.Stmt)) {
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if s, ok := n.(ast.Stmt); ok {
			visit(s)
		}
		return true
	})
}
