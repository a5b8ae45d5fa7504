package experiments

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/field"
	"repro/internal/shm"
)

// ShmRow is one row of the shared-memory scaling study.
type ShmRow struct {
	Dataset   string
	Workers   int
	Slabs     int
	Ratio     float64
	ScMBps    float64 // compression, wall clock
	SdMBps    float64 // decompression, wall clock
	Speedup   float64 // compression speedup vs the workers=1 run
	Identical bool    // bytes match the workers=1 output
	Report    cp.Report
}

// ShmResult holds the scaling table.
type ShmResult struct {
	Table Table
	Rows  []ShmRow
}

// ShmScaling measures the shared-memory pipeline on the Table-2-scale
// synthetic fields: real wall-clock throughput (not the virtual clock of
// the simulated-MPI tables) across worker counts, with byte-identity
// against the single-worker output checked on every row. The measured
// speedup is bounded by the physical cores of the host — on a one-core
// machine every worker count collapses to ~1×.
func ShmScaling(cfg Config) (ShmResult, error) {
	cfg = cfg.WithDefaults()
	res := ShmResult{Table: Table{
		Title: "Shared-memory scaling: two-phase slabs on a worker pool (wall clock)",
		Columns: []string{"Dataset", "Workers", "Slabs", "Ratio",
			"S_c(MB/s)", "S_d(MB/s)", "Speedup", "Identical", "#TP", "#FP", "#FN", "#FT"},
	}}
	workerCounts := []int{1, 2, 4, 8}
	for _, ds := range []dataset{oceanData(cfg), hurricaneData(cfg)} {
		if err := shmRuns(cfg, &res, ds, workerCounts); err != nil {
			return res, err
		}
	}
	return res, nil
}

// scalingSlabs pins the decomposition the worker sweep runs on. The
// default slab count gives these Table-2-scale fields one or two slabs
// (shm.DefaultSlabs), which a worker count cannot spread.
const scalingSlabs = 8

// shmRuns executes one dataset's worker sweep and appends its rows: each
// worker count compresses the field through the pipeline, decodes the
// container with the same worker count (timing the decode alone) and
// compares critical points against the original field.
func shmRuns(cfg Config, res *ShmResult, ds dataset, workerCounts []int) error {
	tr, tau, orig, err := ds.fit(cfg.TauRel)
	if err != nil {
		return err
	}
	var ref []byte
	var baseWall time.Duration
	for _, w := range workerCounts {
		r, err := shm.Compress(field.MemOf(ds.dims, ds.comps), tr, core.Options{Tau: tau, Spec: core.ST2, Tel: cfg.Tel},
			shm.Options{Workers: w, Slabs: scalingSlabs, Tel: cfg.Tel, Faults: cfg.Faults})
		if err != nil {
			return err
		}
		g := make([][]float32, len(ds.comps))
		decode := timeIt(func() {
			for c := range g {
				g[c] = make([]float32, len(ds.comps[c]))
			}
			err = shm.Decompress(r.Blob, w, field.MemOf(ds.dims, g))
		})
		if err != nil {
			return err
		}
		rep := cp.Compare(orig, cp.Detect(ds.dims, g, tr))
		if ref == nil {
			ref = r.Blob
			baseWall = r.Wall
		}
		row := ShmRow{
			Dataset:   ds.name,
			Workers:   w,
			Slabs:     r.Slabs,
			Ratio:     r.Ratio(),
			ScMBps:    r.ThroughputMBps(),
			SdMBps:    float64(r.RawBytes) / 1e6 / decode.Seconds(),
			Speedup:   baseWall.Seconds() / r.Wall.Seconds(),
			Identical: bytes.Equal(r.Blob, ref),
			Report:    rep,
		}
		res.Rows = append(res.Rows, row)
		res.Table.Rows = append(res.Table.Rows, []string{
			row.Dataset,
			fmt.Sprintf("%d", row.Workers),
			fmt.Sprintf("%d", row.Slabs),
			fmt.Sprintf("%.2f", row.Ratio),
			fmt.Sprintf("%.2f", row.ScMBps),
			fmt.Sprintf("%.2f", row.SdMBps),
			fmt.Sprintf("%.2fx", row.Speedup),
			fmt.Sprintf("%t", row.Identical),
			fmt.Sprintf("%d", row.Report.TP),
			fmt.Sprintf("%d", row.Report.FP),
			fmt.Sprintf("%d", row.Report.FN),
			fmt.Sprintf("%d", row.Report.FT),
		})
	}
	return nil
}
