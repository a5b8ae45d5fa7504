// Package lint is a stdlib-only static-analysis framework that
// mechanically enforces the repository's hand-established invariants:
// exact (float-free) determinant predicates, overflow-checked dimension
// products, panic-free decode surfaces, typed errors across integrity
// boundaries, and balanced sync.Pool usage on hot paths.
//
// The framework loads and type-checks every package of the module with
// go/parser + go/types (stdlib imports are resolved from source via
// go/importer, module-internal imports by recursive type-checking), runs
// a suite of Analyzers over the typed syntax trees, and reports
// Diagnostics with file:line positions. Findings are suppressed only by
// an explicit, justified directive:
//
//	//lint:ignore <check> <reason>
//
// placed on the offending line or the line directly above it. A
// directive with an unknown check name, a missing reason, or no matching
// finding is itself a diagnostic, so suppressions cannot rot silently.
//
// Each analyzer ships with a self-test package under testdata/src/
// whose expected findings are pinned by // want "regexp" comments; see
// RunAnalyzerTest.
package lint

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"time"
)

// Diagnostic is one finding: a position, the check that produced it, and
// a human-readable message.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Analyzer is one named check. Run receives the whole typed program so
// checks can follow call chains across package boundaries.
type Analyzer struct {
	// Name identifies the check in diagnostics and in //lint:ignore
	// directives. Lower-case, no spaces.
	Name string
	// Doc is the one-line invariant the analyzer guards.
	Doc string
	// Run reports findings over the program. Diagnostics may leave
	// Check empty; the runner fills in Name.
	Run func(prog *Program) []Diagnostic
}

// DirectiveCheck is the pseudo-check name under which malformed or
// unused //lint:ignore directives are reported. Directive diagnostics
// are never themselves suppressible.
const DirectiveCheck = "lint-directive"

// Default returns the production analyzer suite with repository-default
// configurations.
func Default() []*Analyzer {
	return []*Analyzer{
		FloatEq(nil),
		OverflowMul(nil),
		PanicFree(nil),
		TypedErr(nil),
		TelemetryName(nil),
		SlabBuffer(nil),
		HandlerBound(nil),
		FloatFlow(nil),
		CtxFlow(nil),
		LockHeld(),
		PermitBalance(nil),
	}
}

// Result is the outcome of running a suite over a program.
type Result struct {
	// Diagnostics holds the unsuppressed findings, sorted by position.
	Diagnostics []Diagnostic
	// Counts maps check name to its unsuppressed finding count; every
	// analyzer that ran has an entry, even when zero.
	Counts map[string]int
	// Suppressed counts findings silenced by valid ignore directives.
	Suppressed int
	// Times records each analyzer's wall-clock run time, for -v output
	// and for spotting a check whose cost has quietly grown.
	Times map[string]time.Duration
}

// Run executes the analyzers over the program, applies //lint:ignore
// suppressions, validates the directives themselves, and returns the
// surviving findings sorted by position.
func (p *Program) Run(analyzers []*Analyzer) *Result {
	res := &Result{Counts: make(map[string]int), Times: make(map[string]time.Duration)}
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
		res.Counts[a.Name] = 0
	}

	var diags []Diagnostic
	for _, a := range analyzers {
		start := time.Now()
		for _, d := range a.Run(p) {
			if d.Check == "" {
				d.Check = a.Name
			}
			diags = append(diags, d)
		}
		res.Times[a.Name] = time.Since(start)
	}

	dirs := p.directives()
	for _, dir := range dirs {
		switch {
		case dir.Reason == "":
			res.Diagnostics = append(res.Diagnostics, Diagnostic{
				Pos:     dir.Pos,
				Check:   DirectiveCheck,
				Message: fmt.Sprintf("//lint:ignore %s is missing a reason; write //lint:ignore %s <why this is safe>", dir.Check, dir.Check),
			})
		case !known[dir.Check]:
			res.Diagnostics = append(res.Diagnostics, Diagnostic{
				Pos:     dir.Pos,
				Check:   DirectiveCheck,
				Message: fmt.Sprintf("//lint:ignore names unknown check %q (known: %s)", dir.Check, knownNames(analyzers)),
			})
		}
	}

	for _, d := range diags {
		if dir := matchDirective(dirs, d); dir != nil {
			dir.used = true
			res.Suppressed++
			continue
		}
		res.Diagnostics = append(res.Diagnostics, d)
		res.Counts[d.Check]++
	}

	// A well-formed directive that silenced nothing is stale: the code
	// it excused has moved or the finding no longer fires.
	for _, dir := range dirs {
		if dir.Reason != "" && known[dir.Check] && !dir.used {
			res.Diagnostics = append(res.Diagnostics, Diagnostic{
				Pos:     dir.Pos,
				Check:   DirectiveCheck,
				Message: fmt.Sprintf("//lint:ignore %s suppresses nothing here; remove the stale directive", dir.Check),
			})
		}
	}

	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return res
}

func knownNames(analyzers []*Analyzer) string {
	s := ""
	for i, a := range analyzers {
		if i > 0 {
			s += ", "
		}
		s += a.Name
	}
	return s
}

// pathPattern reports whether an import path matches any of the given
// suffix patterns. A pattern matches its exact value or any path ending
// in "/"+pattern, so "internal/exact" covers "repro/internal/exact" in
// the real tree and a bare "exactpkg" covers self-test packages.
func pathMatch(path string, patterns []string) bool {
	for _, p := range patterns {
		if path == p || hasPathSuffix(path, p) {
			return true
		}
	}
	return false
}

func hasPathSuffix(path, suffix string) bool {
	return len(path) > len(suffix)+1 && path[len(path)-len(suffix)-1] == '/' && path[len(path)-len(suffix):] == suffix
}

func mustCompile(rx string) *regexp.Regexp { return regexp.MustCompile(rx) }
