package experiments

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/field"
	"repro/internal/fixed"
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
		Title: "Shared-memory scaling: lossless-border slabs on a worker pool (wall clock)",
		Columns: []string{"Dataset", "Workers", "Slabs", "Ratio",
			"S_c(MB/s)", "S_d(MB/s)", "Speedup", "Identical", "#TP", "#FP", "#FN", "#FT"},
	}}
	workerCounts := []int{1, 2, 4, 8}

	ocean := oceanField(cfg)
	tr2, err := fixed.Fit(ocean.U, ocean.V)
	if err != nil {
		return res, err
	}
	err = shmRuns(&res, "Ocean", workerCounts,
		cfg.TauRel*field.Range(ocean.U, ocean.V),
		func(tau float64, w int) (shm.Result, error) {
			return shm.Compress(field.Mem2D(ocean), tr2, core.Options{Tau: tau, Spec: core.ST2, Tel: cfg.Tel},
				shm.Options{Workers: w, Tel: cfg.Tel, Faults: cfg.Faults})
		},
		func(blob []byte, w int) (rep cp.Report, decode time.Duration, err error) {
			var g *field.Field2D
			decode = timeIt(func() {
				g = field.NewField2D(ocean.NX, ocean.NY)
				err = shm.Decompress(blob, w, field.Mem2D(g))
			})
			if err != nil {
				return rep, decode, err
			}
			return cp.Compare(cp.DetectField2D(ocean, tr2), cp.DetectField2D(g, tr2)), decode, nil
		})
	if err != nil {
		return res, err
	}

	hurr := hurricaneField(cfg)
	tr3, err := fixed.Fit(hurr.U, hurr.V, hurr.W)
	if err != nil {
		return res, err
	}
	err = shmRuns(&res, "Hurricane", workerCounts,
		cfg.TauRel*field.Range(hurr.U, hurr.V, hurr.W),
		func(tau float64, w int) (shm.Result, error) {
			return shm.Compress(field.Mem3D(hurr), tr3, core.Options{Tau: tau, Spec: core.ST2, Tel: cfg.Tel},
				shm.Options{Workers: w, Tel: cfg.Tel, Faults: cfg.Faults})
		},
		func(blob []byte, w int) (rep cp.Report, decode time.Duration, err error) {
			var g *field.Field3D
			decode = timeIt(func() {
				g = field.NewField3D(hurr.NX, hurr.NY, hurr.NZ)
				err = shm.Decompress(blob, w, field.Mem3D(g))
			})
			if err != nil {
				return rep, decode, err
			}
			return cp.Compare(cp.DetectField3D(hurr, tr3), cp.DetectField3D(g, tr3)), decode, nil
		})
	return res, err
}

// shmRuns executes one dataset's worker sweep and appends its rows.
// compress runs the pipeline; check decodes the container with the same
// worker count (reporting the decode wall time alone) and compares
// critical points against the original field.
func shmRuns(res *ShmResult, dataset string, workerCounts []int, tau float64,
	compress func(tau float64, w int) (shm.Result, error),
	check func(blob []byte, w int) (cp.Report, time.Duration, error)) error {

	var ref []byte
	var baseWall time.Duration
	for _, w := range workerCounts {
		r, err := compress(tau, w)
		if err != nil {
			return err
		}
		rep, decode, err := check(r.Blob, w)
		if err != nil {
			return err
		}
		if ref == nil {
			ref = r.Blob
			baseWall = r.Wall
		}
		row := ShmRow{
			Dataset:   dataset,
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
