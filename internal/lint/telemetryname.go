package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// TelemetryNameConfig scopes the telemetryname analyzer.
type TelemetryNameConfig struct {
	// TelemetryPackages are import-path suffixes of the packages that
	// define the Collector type whose metric registrations are checked.
	TelemetryPackages []string
}

var defaultTelemetryName = &TelemetryNameConfig{
	TelemetryPackages: []string{"internal/telemetry"},
}

// metricNameRx is the canonical metric-name shape: a lowercase
// subsystem prefix followed by at least one dotted segment, every
// segment [a-z0-9_]+. Examples: "mpi.recv_wait_ns",
// "core.2d.st3.spec_trials", "shm.compress2d.slab.degraded".
var metricNameRx = mustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$`)

// metricPartRx bounds the literal fragments of a concatenated name
// (prefix variables are opaque to the analyzer, so only the charset of
// the literal parts is checkable).
var metricPartRx = mustCompile(`^[a-z0-9_.]*$`)

// TelemetryName enforces the metric-name contract the Prometheus and
// JSON exporters rely on: every name passed to Collector.Counter,
// Gauge, or Histogram is lowercase dotted "subsystem.metric_name"
// ([a-z0-9_] segments). The exporters derive label and series names
// mechanically from these strings — promName rewrites dots to
// underscores — so one camel-cased registration silently forks a
// metric family ("core.2d.ST3.vertices" and "core.2d.st3.vertices"
// would export as distinct series and dashboards would sum neither).
//
// Fully constant names must match ^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$
// (at least one dot: a bare "vertices" has no subsystem). For names
// built by concatenation ("core." + dim + ".vertices") each literal
// fragment must stay within [a-z0-9_.]; the variable parts are
// trusted, as their values come from String() methods covered by the
// constant rule at their own call sites or pinned by exporter tests.
func TelemetryName(cfg *TelemetryNameConfig) *Analyzer {
	if cfg == nil {
		cfg = defaultTelemetryName
	}
	return &Analyzer{
		Name: "telemetryname",
		Doc:  "metric names are lowercase dotted subsystem.metric_name",
		Run:  func(prog *Program) []Diagnostic { return runTelemetryName(prog, cfg) },
	}
}

func runTelemetryName(prog *Program, cfg *TelemetryNameConfig) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				method := collectorMetricCall(pkg, call, cfg)
				if method == "" {
					return true
				}
				diags = append(diags, checkMetricName(prog, pkg, method, call.Args[0])...)
				return true
			})
		}
	}
	return diags
}

// collectorMetricCall reports the method name when call is
// Counter/Gauge/Histogram on a Collector from a telemetry package,
// "" otherwise.
func collectorMetricCall(pkg *Package, call *ast.CallExpr, cfg *TelemetryNameConfig) string {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch sel.Sel.Name {
	case "Counter", "Gauge", "Histogram":
	default:
		return ""
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok {
		return ""
	}
	named, ok := derefType(s.Recv()).(*types.Named)
	if !ok || named.Obj().Name() != "Collector" || named.Obj().Pkg() == nil {
		return ""
	}
	if !pathMatch(named.Obj().Pkg().Path(), cfg.TelemetryPackages) {
		return ""
	}
	return sel.Sel.Name
}

func checkMetricName(prog *Program, pkg *Package, method string, arg ast.Expr) []Diagnostic {
	if name, ok := constString(pkg, arg); ok {
		if !metricNameRx.MatchString(name) {
			return []Diagnostic{{
				Pos:     prog.Fset.Position(arg.Pos()),
				Check:   "telemetryname",
				Message: fmt.Sprintf("%s name %q is not lowercase dotted subsystem.metric_name (want %s)", method, name, metricNameRx),
			}}
		}
		return nil
	}
	// Non-constant name: validate the charset of each literal fragment
	// of the concatenation.
	var diags []Diagnostic
	for _, lit := range constStringParts(pkg, arg) {
		part, _ := constString(pkg, lit)
		if !metricPartRx.MatchString(part) {
			diags = append(diags, Diagnostic{
				Pos:     prog.Fset.Position(lit.Pos()),
				Check:   "telemetryname",
				Message: fmt.Sprintf("%s name fragment %q contains characters outside [a-z0-9_.]", method, part),
			})
		}
	}
	return diags
}

// constStringParts walks a + concatenation and returns the maximal
// sub-expressions that are compile-time string constants (the literal
// fragments between variable parts).
func constStringParts(pkg *Package, e ast.Expr) []ast.Expr {
	e = unparen(e)
	if _, ok := constString(pkg, e); ok {
		return []ast.Expr{e}
	}
	if b, ok := e.(*ast.BinaryExpr); ok && b.Op == token.ADD {
		return append(constStringParts(pkg, b.X), constStringParts(pkg, b.Y)...)
	}
	return nil
}
