package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// fixtureReport builds a baseline snapshot with one table5 row; the
// mutate hook lets each case perturb the new snapshot.
func fixtureReport(mutate func(*experiments.BaselineReport)) *experiments.BaselineReport {
	rep := &experiments.BaselineReport{
		Tables: map[string]experiments.BaselineTable{
			"table5": {Rows: []experiments.BaselineRow{
				{
					Compressor: "ours", Settings: "tau=0.01",
					CRPer: []float64{8.25, 8.75}, CRAll: 8.5,
					TP: 27, FP: 0, FN: 0, FT: 0,
				},
				{
					Compressor: "sz3", Settings: "eb=1e-2",
					CRPer: []float64{10.1, 10.3}, CRAll: 10.2,
					TP: 20, FP: 3, FN: 4, FT: 1,
				},
			}},
		},
	}
	if mutate != nil {
		mutate(rep)
	}
	return rep
}

func writeReport(t *testing.T, dir, name string, rep *experiments.BaselineReport) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func runTrendCase(t *testing.T, mutate func(*experiments.BaselineReport)) (bool, string) {
	t.Helper()
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", fixtureReport(nil))
	newP := writeReport(t, dir, "new.json", fixtureReport(mutate))
	var out strings.Builder
	differs, err := runTrend([]string{oldP, newP}, &out)
	if err != nil {
		t.Fatalf("runTrend: %v\n%s", err, out.String())
	}
	return differs, out.String()
}

// mutateRow returns a mutate hook that edits row i of table5.
func mutateRow(i int, edit func(*experiments.BaselineRow)) func(*experiments.BaselineReport) {
	return func(rep *experiments.BaselineReport) {
		edit(&rep.Tables["table5"].Rows[i])
	}
}

func TestTrendCleanPasses(t *testing.T) {
	differs, out := runTrendCase(t, nil)
	if differs {
		t.Fatalf("identical snapshots differ:\n%s", out)
	}
	if !strings.Contains(out, "trend: 2 rows identical") {
		t.Fatalf("missing pass summary:\n%s", out)
	}
}

func TestTrendFidelityRegression(t *testing.T) {
	differs, out := runTrendCase(t, mutateRow(0, func(r *experiments.BaselineRow) { r.FP = 1 }))
	if !differs {
		t.Fatalf("fp increase not flagged:\n%s", out)
	}
	if !strings.Contains(out, "MISMATCH table5/ours|tau=0.01: fp 0 -> 1") {
		t.Fatalf("missing fp mismatch line:\n%s", out)
	}
	if !strings.Contains(out, "make baseline") {
		t.Fatalf("failure does not say how to re-record:\n%s", out)
	}
}

func TestTrendRatioRegression(t *testing.T) {
	// One ULP below 8.5: no tolerance, floats compare by bits.
	differs, out := runTrendCase(t, mutateRow(0, func(r *experiments.BaselineRow) {
		r.CRAll = math.Nextafter(r.CRAll, 0)
	}))
	if !differs {
		t.Fatalf("one-ULP cr_all drop not flagged:\n%s", out)
	}
	if !strings.Contains(out, "MISMATCH table5/ours|tau=0.01: cr_all 8.5 -> 8.499999999999998") {
		t.Fatalf("missing cr_all mismatch line:\n%s", out)
	}
}

func TestTrendMissingRowRegression(t *testing.T) {
	differs, out := runTrendCase(t, func(rep *experiments.BaselineReport) {
		tbl := rep.Tables["table5"]
		tbl.Rows = tbl.Rows[:1]
		rep.Tables["table5"] = tbl
	})
	if !differs {
		t.Fatalf("missing row not flagged:\n%s", out)
	}
	if !strings.Contains(out, "row missing from new snapshot") {
		t.Fatalf("missing row-missing line:\n%s", out)
	}
}

func TestTrendMissingTableRegression(t *testing.T) {
	differs, out := runTrendCase(t, func(rep *experiments.BaselineReport) {
		delete(rep.Tables, "table5")
	})
	if !differs {
		t.Fatalf("missing table not flagged:\n%s", out)
	}
	if !strings.Contains(out, "table missing from new snapshot") {
		t.Fatalf("missing table-missing line:\n%s", out)
	}
}

func TestTrendImprovementsFail(t *testing.T) {
	// A better number is still a different number: the committed
	// snapshot must be re-recorded and the change explained.
	for _, tc := range []struct {
		name, line string
		mutate     func(*experiments.BaselineReport)
	}{
		{"ratio rise", "cr_all 8.5 -> 12", mutateRow(0, func(r *experiments.BaselineRow) { r.CRAll = 12 })},
		{"fp fall", "fp 3 -> 0", mutateRow(1, func(r *experiments.BaselineRow) { r.FP = 0 })},
		{"per-component ratio", "cr_per_component [8.25 8.75] -> [8.25 9]",
			mutateRow(0, func(r *experiments.BaselineRow) { r.CRPer = []float64{8.25, 9} })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			differs, out := runTrendCase(t, tc.mutate)
			if !differs {
				t.Fatalf("%s passed the gate:\n%s", tc.name, out)
			}
			if !strings.Contains(out, tc.line) {
				t.Fatalf("missing %q:\n%s", tc.line, out)
			}
		})
	}
}

func TestTrendExtraRowFails(t *testing.T) {
	differs, out := runTrendCase(t, func(rep *experiments.BaselineReport) {
		tbl := rep.Tables["table5"]
		tbl.Rows = append(tbl.Rows, experiments.BaselineRow{Compressor: "zfp", Settings: "-P 7", CRAll: 3})
		rep.Tables["table5"] = tbl
	})
	if !differs || !strings.Contains(out, "table5/zfp|-P 7: row missing from old snapshot") {
		t.Fatalf("row only in the new snapshot not flagged:\n%s", out)
	}
}

func TestTrendBadArgs(t *testing.T) {
	var out strings.Builder
	if _, err := runTrend([]string{"only-one.json"}, &out); err == nil {
		t.Fatal("single snapshot accepted")
	}
	if _, err := runTrend([]string{"a.json", "b.json"}, &out); err == nil {
		t.Fatal("nonexistent snapshots accepted")
	}
	if _, err := runTrend([]string{"-max-ratio-drop", "0.05", "a.json", "b.json"}, &out); err == nil {
		t.Fatal("a tolerance flag was accepted")
	}
}
