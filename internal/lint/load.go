package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package of the program.
type Package struct {
	// Path is the import path ("repro/internal/core"), or the bare
	// package name for testdata packages loaded outside a module.
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is the loaded module: every package parsed and type-checked
// against one shared file set.
type Program struct {
	Fset   *token.FileSet
	Module string // module path; "" for single-directory loads
	Pkgs   []*Package

	cg *callGraph // built lazily by CallGraph()
}

// LoadModule parses and type-checks every package under root (the
// directory containing go.mod), resolving stdlib imports from source and
// module-internal imports by recursive type-checking — no go tool
// invocation, no export data. Directories named testdata, hidden
// directories, and _test.go files are skipped: the suite lints
// production code.
func LoadModule(root string) (*Program, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	prog := &Program{Fset: token.NewFileSet(), Module: modPath}
	raw := make(map[string]*rawPkg)

	err = filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, err := parseDir(prog.Fset, dir)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		rp := &rawPkg{path: path, dir: dir, files: files}
		for _, f := range files {
			for _, imp := range f.Imports {
				ip, _ := strconv.Unquote(imp.Path.Value)
				if ip == modPath || strings.HasPrefix(ip, modPath+"/") {
					rp.imports = append(rp.imports, ip)
				}
			}
		}
		raw[path] = rp
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Type-check in dependency order, fanning independent packages over
	// GOMAXPROCS workers. The stdlib source importer is not safe for
	// concurrent use and module-internal results land in a shared map, so
	// every Import goes through one mutex; the per-package checking
	// itself — the dominant cost — runs in parallel once a package's
	// module dependencies are resolved.
	imp := &lockedImporter{
		checked: make(map[string]*types.Package),
		std:     importer.ForCompiler(prog.Fset, "source", nil),
	}

	remaining := make(map[string]int, len(raw)) // unchecked module deps
	dependents := make(map[string][]string)
	for path, rp := range raw {
		deps := map[string]bool{}
		for _, dep := range rp.imports {
			if raw[dep] == nil {
				return nil, fmt.Errorf("lint: module import %s has no source directory", dep)
			}
			if dep != path && !deps[dep] {
				deps[dep] = true
				dependents[dep] = append(dependents[dep], path)
			}
		}
		remaining[path] = len(deps)
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(raw) {
		workers = len(raw)
	}
	if workers < 1 {
		workers = 1
	}
	type checkRes struct {
		pkg *Package
		err error
	}
	jobs := make(chan *rawPkg, len(raw))
	results := make(chan checkRes, len(raw))
	for w := 0; w < workers; w++ {
		go func() {
			for rp := range jobs {
				pkg, err := checkPackage(prog.Fset, rp.path, rp.files, imp)
				if pkg != nil {
					pkg.Dir = rp.dir
				}
				results <- checkRes{pkg, err}
			}
		}()
	}
	defer close(jobs)

	paths := make([]string, 0, len(raw))
	for p := range raw {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	inflight := 0
	for _, p := range paths {
		if remaining[p] == 0 {
			jobs <- raw[p]
			inflight++
		}
	}
	pending := len(raw)
	for pending > 0 {
		if inflight == 0 {
			// Every unchecked package still waits on another: a cycle.
			for _, p := range paths {
				if remaining[p] > 0 {
					return nil, fmt.Errorf("lint: import cycle through %s", p)
				}
			}
			return nil, fmt.Errorf("lint: scheduler stalled with %d packages pending", pending)
		}
		res := <-results
		inflight--
		if res.err != nil {
			return nil, res.err
		}
		imp.set(res.pkg.Path, res.pkg.Types)
		prog.Pkgs = append(prog.Pkgs, res.pkg)
		pending--
		for _, dep := range dependents[res.pkg.Path] {
			remaining[dep]--
			if remaining[dep] == 0 {
				jobs <- raw[dep]
				inflight++
			}
		}
	}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].Path < prog.Pkgs[j].Path })
	return prog, nil
}

// LoadDirs loads each directory as one package, in order; a later
// package may import an earlier one by its package name. This lets
// self-tests exercise cross-package call chains without a go.mod.
func LoadDirs(dirs ...string) (*Program, error) {
	prog := &Program{Fset: token.NewFileSet()}
	imp := &moduleImporter{
		checked: map[string]*types.Package{},
		std:     importer.ForCompiler(prog.Fset, "source", nil),
	}
	for _, dir := range dirs {
		files, err := parseDir(prog.Fset, dir)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("lint: no Go files in %s", dir)
		}
		pkg, err := checkPackage(prog.Fset, files[0].Name.Name, files, imp)
		if err != nil {
			return nil, err
		}
		pkg.Dir = dir
		imp.checked[pkg.Path] = pkg.Types
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	return prog, nil
}

func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func checkPackage(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Files: files, Types: tpkg, Info: info}, nil
}

// moduleImporter resolves module-internal imports from the already
// type-checked set and everything else (the stdlib) from source.
type moduleImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

// lockedImporter is the concurrent variant: the parallel LoadModule
// workers share one stdlib source importer (not goroutine-safe) and one
// result map, so both sit behind a mutex. A fully checked
// *types.Package is immutable and safe to read from any worker.
type lockedImporter struct {
	mu      sync.Mutex
	checked map[string]*types.Package
	std     types.Importer
}

func (m *lockedImporter) Import(path string) (*types.Package, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

func (m *lockedImporter) set(path string, pkg *types.Package) {
	m.mu.Lock()
	m.checked[path] = pkg
	m.mu.Unlock()
}

func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// rawPkg is a parsed-but-not-yet-checked package directory.
type rawPkg struct {
	path    string
	dir     string
	files   []*ast.File
	imports []string // module-internal import paths
}
