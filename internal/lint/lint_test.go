package lint

import (
	"path/filepath"
	"testing"
	"time"
)

func td(parts ...string) string {
	return filepath.Join(append([]string{"testdata", "src"}, parts...)...)
}

// TestExactFloat pins floatflow's float-free rule on the exact
// packages and every call chain they root.
func TestExactFloat(t *testing.T) {
	RunAnalyzerTestDirs(t,
		[]string{td("exactfloat", "chainhelper"), td("exactfloat", "exactpkg")},
		FloatFlow(&FloatFlowConfig{ExactPackages: []string{"exactpkg"}}),
	)
}

// TestFilterExact pins floatflow's filter rules: the ok-guard on
// certified stages, the exact fallback of every *Sign predicate, and no
// raw exact Sign() outside the filter and exact packages.
func TestFilterExact(t *testing.T) {
	RunAnalyzerTestDirs(t,
		[]string{
			td("filterexact", "exactstub"),
			td("filterexact", "filterstub"),
			td("filterexact", "clientpkg"),
		},
		FloatFlow(&FloatFlowConfig{
			ExactPackages:  []string{"exactstub"},
			FilterPackages: []string{"filterstub"},
		}),
	)
}

func TestHandlerBound(t *testing.T) {
	RunAnalyzerTest(t, td("handlerbound", "handlerpkg"),
		HandlerBound(&HandlerBoundConfig{
			HandlerPackages: []string{"handlerpkg"},
			LimitFuncs:      defaultHandlerBound.LimitFuncs,
			DeadlineFuncs:   defaultHandlerBound.DeadlineFuncs,
		}),
	)
}

func TestFloatEq(t *testing.T) {
	RunAnalyzerTest(t, td("floateq", "floatpkg"), FloatEq(nil))
}

func TestOverflowMul(t *testing.T) {
	RunAnalyzerTest(t, td("overflowmul", "mulpkg"),
		OverflowMul(&OverflowMulConfig{BlessedFuncs: []string{"checkedProduct", "allocChecked"}}),
	)
}

func TestPanicFree(t *testing.T) {
	RunAnalyzerTest(t, td("panicfree", "panicpkg"), PanicFree(nil))
}

func TestTypedErr(t *testing.T) {
	RunAnalyzerTestDirs(t,
		[]string{td("typederr", "plainpkg"), td("typederr", "boundarypkg")},
		TypedErr(&TypedErrConfig{BoundaryPackages: []string{"boundarypkg"}}),
	)
}

func TestSlabBuffer(t *testing.T) {
	RunAnalyzerTest(t, td("slabbuffer", "slabpkg"),
		SlabBuffer(&SlabBufferConfig{
			StreamPackages: []string{"slabpkg"},
			StreamTypes:    defaultSlabBuffer.StreamTypes,
		}),
	)
}

func TestTelemetryName(t *testing.T) {
	RunAnalyzerTestDirs(t,
		[]string{td("telemetryname", "telemetrystub"), td("telemetryname", "namepkg")},
		TelemetryName(&TelemetryNameConfig{TelemetryPackages: []string{"telemetrystub"}}),
	)
}

func TestFloatFlow(t *testing.T) {
	RunAnalyzerTestDirs(t,
		[]string{
			td("floatflow", "exactstub"),
			td("floatflow", "fixedstub"),
			td("floatflow", "flowpkg"),
		},
		FloatFlow(&FloatFlowConfig{
			ExactPackages: []string{"exactstub"},
			FixedPackages: []string{"fixedstub"},
		}),
	)
}

func TestCtxFlow(t *testing.T) {
	RunAnalyzerTest(t, td("ctxflow", "ctxpkg"),
		CtxFlow(&CtxFlowConfig{ScopedPackages: []string{"ctxpkg"}}),
	)
}

func TestLockHeld(t *testing.T) {
	RunAnalyzerTest(t, td("lockheld", "lockpkg"), LockHeld())
}

func TestPermitBalance(t *testing.T) {
	RunAnalyzerTest(t, td("permitbalance", "permitpkg"),
		PermitBalance(&PermitBalanceConfig{
			Packages:     []string{"permitpkg"},
			AcquireFuncs: []string{"acquire", "admit"},
		}),
	)
}

// TestPoolBalance pins permitbalance's sync.Pool rules: Put on every
// path, a retained Get result, and no escape from a package that never
// Puts to the pool.
func TestPoolBalance(t *testing.T) {
	RunAnalyzerTest(t, td("poolbalance", "poolpkg"),
		PermitBalance(&PermitBalanceConfig{Packages: []string{"poolpkg"}}),
	)
}

// TestIgnoreDirectives pins the suppression mechanism itself: valid
// directives silence findings, while a missing reason, an unknown
// check name, and a stale directive are each diagnostics.
func TestIgnoreDirectives(t *testing.T) {
	RunAnalyzerTest(t, td("ignore", "ignorepkg"), FloatEq(nil))
}

// TestLoadModule loads the real module the way cmd/topolint does and
// sanity-checks shape and speed: the whole-tree load must stay well
// inside the 30s budget the lint gate promises.
func TestLoadModule(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load in -short mode")
	}
	start := time.Now()
	prog, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("LoadModule took %v, over the 30s lint budget", elapsed)
	}
	if prog.Module != "repro" {
		t.Errorf("module path = %q, want repro", prog.Module)
	}
	if len(prog.Pkgs) < 25 {
		t.Errorf("loaded %d packages, want >= 25", len(prog.Pkgs))
	}
	for _, want := range []string{"repro/internal/exact", "repro/internal/core", "repro/cmd/topozip"} {
		found := false
		for _, p := range prog.Pkgs {
			if p.Path == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("package %s not loaded", want)
		}
	}
}

// TestDefaultSuiteNames pins the analyzer roster the Makefile's lint
// gate advertises.
func TestDefaultSuiteNames(t *testing.T) {
	want := []string{"floateq", "overflowmul", "panicfree", "typederr", "telemetryname", "slabbuffer", "handlerbound", "floatflow", "ctxflow", "lockheld", "permitbalance"}
	got := Default()
	if len(got) != len(want) {
		t.Fatalf("Default() has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
	}
}
