package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/mpi"
	"repro/internal/parallel"
)

// ParallelRow is one row of Tables II/III.
type ParallelRow struct {
	Cores       int
	Method      string
	Speculation string
	Report      cp.Report
	Ratio       float64
	ScMBps      float64
	SdMBps      float64
}

// ParallelResult holds a parallel-strategy table.
type ParallelResult struct {
	Table Table
	Rows  []ParallelRow
}

// Table2 reproduces the naive vs lossless-border comparison on the
// Nek5000 stand-in with 1, 8, and 64 cores (Table II).
func Table2(cfg Config) (ParallelResult, error) {
	cfg = cfg.WithDefaults()
	rows, err := parallelRuns(cfg,
		[]parallel.Strategy{parallel.Naive, parallel.LosslessBorders},
		[]core.Speculation{core.NoSpec, core.ST4})
	if err != nil {
		return ParallelResult{}, err
	}
	return parallelTable("Table II: naive parallelization vs lossless borders on Nek5000", rows), nil
}

// Table3 reproduces the ratio-oriented parallelization results
// (Table III).
func Table3(cfg Config) (ParallelResult, error) {
	cfg = cfg.WithDefaults()
	rows, err := parallelRuns(cfg,
		[]parallel.Strategy{parallel.RatioOriented},
		[]core.Speculation{core.NoSpec})
	if err != nil {
		return ParallelResult{}, err
	}
	return parallelTable("Table III: ratio-oriented parallelization on Nek5000", rows), nil
}

func parallelRuns(cfg Config, strats []parallel.Strategy, specs []core.Speculation) ([]ParallelRow, error) {
	f := nekField(cfg)
	tr, err := fixed.Fit(f.U, f.V, f.W)
	if err != nil {
		return nil, err
	}
	tau := cfg.TauRel * field.Range(f.U, f.V, f.W)
	dims := f.Dims()
	orig := cp.Detect(dims, f.Components(), tr)
	raw := 4 * 3 * len(f.U)

	var rows []ParallelRow
	for _, p := range []int{1, 2, 4} { // 1, 8, 64 cores as p³ grids
		grid := []int{p, p, p}
		for _, strat := range strats {
			for _, spec := range specs {
				var res parallel.Result
				compress := func() {
					res, err = parallel.CompressDistributed(dims, f.Components(), grid, tr,
						core.Options{Tau: tau, Spec: spec, Tel: cfg.Tel}, strat, mpi.Config{})
				}
				if p == 1 {
					// A one-rank naive run is a whole domain, which
					// core would fan out over every core; time the
					// one-rank runs on one, like each rank of the
					// larger grids.
					timeOneCore(compress)
				} else {
					compress()
				}
				if err != nil {
					return nil, err
				}
				g, dst, err := parallel.DecompressDistributed(res.Blobs, dims, grid, mpi.Config{Tel: cfg.Tel})
				if err != nil {
					return nil, err
				}
				rep := cp.Compare(orig, cp.Detect(dims, g, tr))
				rows = append(rows, ParallelRow{
					Cores:       p * p * p,
					Method:      strat.String(),
					Speculation: spec.String(),
					Report:      rep,
					Ratio:       res.Ratio(),
					ScMBps:      res.ThroughputMBps(),
					SdMBps:      float64(raw) / 1e6 / dst.Makespan.Seconds(),
				})
			}
		}
	}
	return rows, nil
}

func parallelTable(title string, rows []ParallelRow) ParallelResult {
	t := Table{
		Title:   title,
		Columns: []string{"#Cores", "Method", "Speculation", "#TP", "#FP", "#FN", "#FT", "Ratio", "S_c(MB/s)", "S_d(MB/s)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Cores),
			r.Method,
			r.Speculation,
			fmt.Sprintf("%d", r.Report.TP),
			fmt.Sprintf("%d", r.Report.FP),
			fmt.Sprintf("%d", r.Report.FN),
			fmt.Sprintf("%d", r.Report.FT),
			fmt.Sprintf("%.2f", r.Ratio),
			fmt.Sprintf("%.2f", r.ScMBps),
			fmt.Sprintf("%.2f", r.SdMBps),
		})
	}
	return ParallelResult{Table: t, Rows: rows}
}
