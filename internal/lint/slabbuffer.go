package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// SlabBufferConfig scopes the slabbuffer analyzer.
type SlabBufferConfig struct {
	// StreamPackages are import-path suffixes of the packages hosting
	// out-of-core code paths; only functions in these packages are
	// examined.
	StreamPackages []string
	// StreamTypes are type names whose presence in a function's receiver
	// or parameter list marks it as a streaming path (io.ReaderAt,
	// archive.StreamWriter, field.SlabSource, ...). Matched by name so
	// self-test stubs work; the production types are unambiguous within
	// StreamPackages.
	StreamTypes []string
}

var defaultSlabBuffer = &SlabBufferConfig{
	StreamPackages: []string{
		"internal/archive", "internal/field", "internal/shm",
		"internal/core", "cmd/topozip",
	},
	StreamTypes: []string{
		"ReaderAt", "WriterAt",
		"StreamReader", "StreamWriter",
		"SlabSource", "RawSource", "RawSink", "PlaneSink",
	},
}

// SlabBuffer enforces the out-of-core memory contract of the streaming
// pipeline: a function on a streaming path must never materialize a
// whole file or container. Two shapes betray that mistake — a call to
// io.ReadAll/os.ReadFile (the whole input in one slice), and a make()
// whose size expression has static type int64/uint64, which in this
// codebase means "sized by a file, blob, or container length" rather
// than by a window or slab count (plane/window arithmetic is int). A
// genuine O(index) or O(slab) allocation is suppressed with an audited
// //lint:ignore slabbuffer <why it is bounded>.
//
// A function is on a streaming path when its name contains "stream"
// (case-insensitive), its receiver/parameters mention one of the
// streaming types (io.ReaderAt, StreamReader/Writer, SlabSource, ...),
// or its body obtains one from a call (archive.OpenStream,
// field.NewRawSource, ...) — so a command that opens a container is
// covered even though it takes only flags.
func SlabBuffer(cfg *SlabBufferConfig) *Analyzer {
	if cfg == nil {
		cfg = defaultSlabBuffer
	}
	return &Analyzer{
		Name: "slabbuffer",
		Doc:  "streaming paths must not buffer whole files: no io.ReadAll/os.ReadFile, no 64-bit-length make()",
		Run:  func(prog *Program) []Diagnostic { return runSlabBuffer(prog, cfg) },
	}
}

func runSlabBuffer(prog *Program, cfg *SlabBufferConfig) []Diagnostic {
	streamTypes := make(map[string]bool, len(cfg.StreamTypes))
	for _, t := range cfg.StreamTypes {
		streamTypes[t] = true
	}
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		if !pathMatch(pkg.Path, cfg.StreamPackages) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !isStreamFunc(pkg, fd, streamTypes) {
					continue
				}
				diags = append(diags, slabBufferFunc(prog, pkg, fd)...)
			}
		}
	}
	return diags
}

// isStreamFunc reports whether fd is on a streaming path: named
// *stream*, handling one of the streaming types, or calling something
// that returns one.
func isStreamFunc(pkg *Package, fd *ast.FuncDecl, streamTypes map[string]bool) bool {
	if strings.Contains(strings.ToLower(fd.Name.Name), "stream") {
		return true
	}
	fields := []*ast.FieldList{fd.Recv, fd.Type.Params}
	for _, fl := range fields {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			if streamTypes[terminalTypeName(pkg, field.Type)] {
				return true
			}
		}
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		results := []types.Type{pkg.Info.Types[call].Type}
		if tup, ok := results[0].(*types.Tuple); ok {
			results = results[:0]
			for i := 0; i < tup.Len(); i++ {
				results = append(results, tup.At(i).Type())
			}
		}
		for _, t := range results {
			found = found || streamTypes[namedCore(t)]
		}
		return !found
	})
	return found
}

// terminalTypeName unwraps pointers and slices to the named type at the
// core of a field's type, "" when there is none (builtins, funcs,
// anonymous structs).
func terminalTypeName(pkg *Package, e ast.Expr) string {
	return namedCore(pkg.Info.Types[e].Type)
}

// namedCore is terminalTypeName over a type.
func namedCore(t types.Type) string {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Named:
			return u.Obj().Name()
		default:
			return ""
		}
	}
}

func slabBufferFunc(prog *Program, pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	var diags []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name := wholeInputReadCall(pkg, call); name != "" {
			diags = append(diags, Diagnostic{
				Pos:     prog.Fset.Position(call.Pos()),
				Check:   "slabbuffer",
				Message: fmt.Sprintf("%s buffers the whole input on a streaming path; read through the slab/window API instead", name),
			})
			return true
		}
		id, ok := unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "make" || len(call.Args) < 2 {
			return true
		}
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
			return true
		}
		for _, size := range call.Args[1:] {
			if is64BitExpr(pkg, size) {
				diags = append(diags, Diagnostic{
					Pos:     prog.Fset.Position(size.Pos()),
					Check:   "slabbuffer",
					Message: "make() on a streaming path sized by a 64-bit length — that is a file/blob size, not a window; bound the allocation or justify with //lint:ignore slabbuffer <reason>",
				})
			}
		}
		return true
	})
	return diags
}

// wholeInputReadCall reports "io.ReadAll" / "os.ReadFile" when call is
// one of them, "" otherwise.
func wholeInputReadCall(pkg *Package, call *ast.CallExpr) string {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	x, ok := unparen(sel.X).(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := pkg.Info.Uses[x].(*types.PkgName)
	if !ok {
		return ""
	}
	switch {
	case pn.Imported().Path() == "io" && sel.Sel.Name == "ReadAll":
		return "io.ReadAll"
	case pn.Imported().Path() == "os" && sel.Sel.Name == "ReadFile":
		return "os.ReadFile"
	}
	return ""
}

// is64BitExpr reports whether e's static type is int64 or uint64 and it
// is not a compile-time constant (constant sizes are fixed scratch, not
// input-derived).
func is64BitExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Int64, types.Uint64:
		return true
	}
	return false
}
