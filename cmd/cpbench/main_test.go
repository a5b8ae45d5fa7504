package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

var tinyCfg = experiments.Config{
	OceanNX: 64, OceanNY: 48,
	HurrNX: 16, HurrNY: 16, HurrNZ: 8,
	NekN: 12, RDNekN: 10, TurbBlock: 6,
}

func TestRunKnownExperiments(t *testing.T) {
	// Table3 and fig9 are the cheapest full experiments; they cover the
	// dispatch plumbing.
	for _, name := range []string{"table3", "fig9"} {
		tbl, err := run(name, tinyCfg, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s produced no rows", name)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := run("table99", tinyCfg, "."); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

func TestWriteCSV(t *testing.T) {
	tbl := &experiments.Table{Columns: []string{"a"}, Rows: [][]string{{"1"}}}
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := writeCSV(tbl, path); err != nil {
		t.Fatal(err)
	}
	if err := writeCSV(tbl, filepath.Join(t.TempDir(), "missing", "t.csv")); err == nil {
		t.Fatal("unwritable path must fail")
	}
}

func TestWriteMetrics(t *testing.T) {
	cfg := tinyCfg
	cfg.Tel = telemetry.New()
	if _, err := run("table3", cfg, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "table3.metrics.json")
	if err := writeMetrics(cfg.Tel, path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	if snap.Counters["mpi.p2p.msgs"] == 0 {
		t.Error("table3 (ratio-oriented distributed) must record p2p traffic")
	}
}

func TestWriteBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_baseline.json")
	if err := writeBaseline(tinyCfg, path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Tables map[string]struct {
			Rows []struct {
				Compressor string  `json:"compressor"`
				CRAll      float64 `json:"cr_all"`
			} `json:"rows"`
			Metrics struct {
				Spans []struct {
					Name string `json:"name"`
				} `json:"spans"`
			} `json:"metrics"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("baseline file is not valid JSON: %v", err)
	}
	for _, name := range []string{"table5", "table6", "table7"} {
		tbl, ok := rep.Tables[name]
		if !ok || len(tbl.Rows) == 0 {
			t.Fatalf("baseline missing %s rows", name)
		}
		for _, r := range tbl.Rows {
			if r.CRAll <= 0 {
				t.Errorf("%s: %s has non-positive ratio", name, r.Compressor)
			}
		}
		if len(tbl.Metrics.Spans) == 0 {
			t.Errorf("%s: no stage spans recorded", name)
		}
	}

	// The gate compares a fresh snapshot with the committed one exactly,
	// so two runs of the same tree must agree on every row.
	again := filepath.Join(t.TempDir(), "BENCH_again.json")
	if err := writeBaseline(tinyCfg, again); err != nil {
		t.Fatal(err)
	}
	first, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	second, err := readBaseline(again)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if n, _ := diffBaselines(&out, first, second); n > 0 {
		t.Fatalf("two baseline runs of the same tree differ:\n%s", out.String())
	}
}

func TestTableTitlesMentionPaperArtifacts(t *testing.T) {
	tbl, err := run("table3", tinyCfg, ".")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.Title, "Table III") {
		t.Errorf("title %q", tbl.Title)
	}
}
