package experiments

import (
	"encoding/json"
	"io"

	"repro/internal/telemetry"
)

// BaselineRow is one compressor entry of the machine-readable benchmark
// baseline: the deterministic part of a QuantRow (ratios and
// preservation counts) with JSON names. Throughput is left out; it
// varies run to run, and the bench/ module measures it.
type BaselineRow struct {
	Compressor string    `json:"compressor"`
	Settings   string    `json:"settings"`
	CRPer      []float64 `json:"cr_per_component,omitempty"`
	CRAll      float64   `json:"cr_all"`
	TP         int       `json:"tp"`
	FP         int       `json:"fp"`
	FN         int       `json:"fn"`
	FT         int       `json:"ft"`
}

// BaselineTable is the result of one quantitative table: its rows plus
// the telemetry collected while producing them (stage spans, speculation
// counters, bound-exponent histograms).
type BaselineTable struct {
	Rows    []BaselineRow      `json:"rows"`
	Metrics telemetry.Snapshot `json:"metrics"`
}

// BaselineReport is the full content of BENCH_baseline.json: the
// compression ratios and preservation counts of Tables V–VII together
// with per-stage timings, keyed by table name.
type BaselineReport struct {
	Config Config                   `json:"config"`
	Tables map[string]BaselineTable `json:"tables"`
}

func baselineRows(rows []QuantRow) []BaselineRow {
	out := make([]BaselineRow, len(rows))
	for i, r := range rows {
		out[i] = BaselineRow{
			Compressor: r.Compressor, Settings: r.Settings,
			CRPer: r.CRPer, CRAll: r.CRAll,
			TP: r.Report.TP, FP: r.Report.FP, FN: r.Report.FN, FT: r.Report.FT,
		}
	}
	return out
}

// Baseline runs Tables V–VII with a fresh collector each and assembles
// the benchmark baseline report.
func Baseline(cfg Config) (BaselineReport, error) {
	cfg = cfg.WithDefaults()
	rep := BaselineReport{Config: cfg, Tables: make(map[string]BaselineTable)}
	for _, t := range []struct {
		name string
		run  func(Config) (QuantResult, error)
	}{
		{"table5", Table5},
		{"table6", Table6},
		{"table7", Table7},
	} {
		c := cfg
		c.Tel = telemetry.New()
		res, err := t.run(c)
		if err != nil {
			return rep, err
		}
		rep.Tables[t.name] = BaselineTable{
			Rows:    baselineRows(res.Rows),
			Metrics: c.Tel.Snapshot(),
		}
	}
	return rep, nil
}

// WriteBaseline runs Baseline and writes the report as indented JSON
// (deterministic key order and rows; only the timings vary run to run).
func WriteBaseline(cfg Config, w io.Writer) error {
	rep, err := Baseline(cfg)
	if err != nil {
		return err
	}
	return writeIndentedJSON(w, rep)
}

func writeIndentedJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
