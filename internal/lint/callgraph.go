package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// callGraph is a static over-approximation of the program's call
// relation, keyed by declared functions and methods.
//
//   - Calls made inside a function literal are attributed to the
//     enclosing declared function (conservative: the literal may never
//     run, but if it does, it runs on behalf of its creator).
//   - A call through an interface method adds edges to every concrete
//     method of a module-declared type that implements the interface.
//   - Calls through plain function values are invisible; the analyzers
//     that rely on the graph document this limitation.
type callGraph struct {
	callees map[*types.Func][]*types.Func
	decls   map[*types.Func]*funcDecl
}

// funcDecl ties a types.Func back to its syntax.
type funcDecl struct {
	Pkg  *Package
	Decl *ast.FuncDecl
}

// CallGraph builds (once) and returns the program's call graph.
func (p *Program) CallGraph() *callGraph {
	if p.cg != nil {
		return p.cg
	}
	g := &callGraph{
		callees: map[*types.Func][]*types.Func{},
		decls:   map[*types.Func]*funcDecl{},
	}

	// Index declarations.
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					g.decls[fn] = &funcDecl{Pkg: pkg, Decl: fd}
				}
			}
		}
	}

	// Concrete methods of module types, for interface-call resolution.
	methodImpls := p.moduleMethodImpls()

	for fn, fd := range g.decls {
		if fd.Decl.Body == nil {
			continue
		}
		seen := map[*types.Func]bool{}
		ast.Inspect(fd.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, callee := range resolveCallees(fd.Pkg, call, methodImpls) {
				if !seen[callee] {
					seen[callee] = true
					g.callees[fn] = append(g.callees[fn], callee)
				}
			}
			return true
		})
		sort.Slice(g.callees[fn], func(i, j int) bool {
			return g.callees[fn][i].FullName() < g.callees[fn][j].FullName()
		})
	}
	p.cg = g
	return g
}

// moduleMethodImpls maps method name to the concrete module methods
// bearing that name, used to resolve interface dispatch.
func (p *Program) moduleMethodImpls() map[string][]*types.Func {
	impls := map[string][]*types.Func{}
	for _, pkg := range p.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				impls[m.Name()] = append(impls[m.Name()], m)
			}
		}
	}
	return impls
}

// resolveCallees returns the declared functions a call may invoke.
func resolveCallees(pkg *Package, call *ast.CallExpr, methodImpls map[string][]*types.Func) []*types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return []*types.Func{fn}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			recv := sel.Recv()
			if types.IsInterface(recv) {
				// Interface dispatch: fan out to every module method
				// with this name whose receiver implements the
				// interface.
				iface, _ := recv.Underlying().(*types.Interface)
				var out []*types.Func
				for _, m := range methodImpls[fn.Name()] {
					r := m.Type().(*types.Signature).Recv()
					if r == nil {
						continue
					}
					if iface != nil && (types.Implements(r.Type(), iface) ||
						types.Implements(types.NewPointer(r.Type()), iface)) {
						out = append(out, m)
					}
				}
				return out
			}
			return []*types.Func{fn}
		}
		// Package-qualified call: pkg.Func.
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return []*types.Func{fn}
		}
	}
	return nil
}

// unparen strips parentheses around an expression.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// derefType strips one pointer level from t.
func derefType(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// rootObj resolves a stable identity for an expression like x, pkg.v,
// s.field, or &s.field: the variable or struct-field object it names
// (a field object is shared across methods); nil when there is none.
func rootObj(pkg *Package, e ast.Expr) types.Object {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return identObj(pkg, e)
	case *ast.SelectorExpr:
		return pkg.Info.Uses[e.Sel]
	case *ast.UnaryExpr:
		return rootObj(pkg, e.X)
	}
	return nil
}

// Reachable walks the graph from roots and returns, for every reachable
// function, its BFS predecessor (roots map to nil). The predecessor
// chain reconstructs a sample call path for diagnostics.
func (g *callGraph) Reachable(roots []*types.Func) map[*types.Func]*types.Func {
	parent := make(map[*types.Func]*types.Func, len(roots))
	queue := make([]*types.Func, 0, len(roots))
	for _, r := range roots {
		if _, ok := parent[r]; !ok {
			parent[r] = nil
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, callee := range g.callees[fn] {
			if _, ok := parent[callee]; !ok {
				parent[callee] = fn
				queue = append(queue, callee)
			}
		}
	}
	return parent
}

// pathTo renders the call chain root → ... → fn from a Reachable result.
func pathTo(parent map[*types.Func]*types.Func, fn *types.Func) string {
	var names []string
	for f := fn; f != nil; f = parent[f] {
		names = append(names, f.Name())
		if parent[f] == nil {
			break
		}
	}
	s := ""
	for i := len(names) - 1; i >= 0; i-- {
		if s != "" {
			s += " -> "
		}
		s += names[i]
	}
	return s
}
