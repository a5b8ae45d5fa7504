package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/cpsz"
	"repro/internal/field"
	"repro/internal/fixed"
)

// QualRow is one method's entry in a qualitative comparison.
type QualRow struct {
	Method string
	Ratio  float64
	Report cp.Report
	// StreamDiv is the mean streamline divergence vs the original data
	// (3D figures only).
	StreamDiv float64
	// Image is the path of the rendered PPM (2D figure only).
	Image string
}

// Fig5 reproduces the qualitative Ocean comparison: each method's
// decompressed field is rendered as LIC with critical point markers
// overlaid, and the false-case counts quantify what the paper shows
// visually (clusters of false positives for the generic compressors near
// the land boundaries).
//
// outDir receives one PPM per method; pass "" to skip image output.
func Fig5(cfg Config, outDir string) ([]QualRow, Table, error) {
	cfg = cfg.WithDefaults()
	ds := oceanData(cfg)
	tr, tau, orig, err := ds.fit(cfg.TauRel)
	if err != nil {
		return nil, Table{}, err
	}
	methods, err := qualMethods(ds, tr, tau, 0.1, sz3Abs, zfpAcc, fpzipPrec)
	if err != nil {
		return nil, Table{}, err
	}
	original := qualMethod{"original", func() ([][]float32, int, error) { return ds.comps, ds.rawBytes(), nil }}
	methods = append([]qualMethod{original}, methods...)

	var rows []QualRow
	for _, m := range methods {
		row, pts, g, err := m.eval(ds, tr, orig)
		if err != nil {
			return nil, Table{}, err
		}
		if outDir != "" {
			f := &field.Field2D{NX: ds.dims[0], NY: ds.dims[1], U: g[0], V: g[1]}
			img := analysis.LIC(f, 10, 7)
			color := analysis.OverlayCriticalPoints(img, f.NX, f.NY, pts)
			path := filepath.Join(outDir, "fig5-"+m.name+".ppm")
			file, err := os.Create(path)
			if err != nil {
				return nil, Table{}, err
			}
			if err := analysis.WritePPM(file, color, f.NX, f.NY); err != nil {
				file.Close()
				return nil, Table{}, err
			}
			if err := file.Close(); err != nil {
				return nil, Table{}, err
			}
			row.Image = path
		}
		rows = append(rows, row)
	}
	return rows, qualTable("Fig. 5: qualitative results on 2D Ocean data", rows, false), nil
}

// Fig7 reproduces the Hurricane streamline comparison as divergence
// statistics (the quantitative counterpart of the paper's renderings).
func Fig7(cfg Config) ([]QualRow, Table, error) {
	cfg = cfg.WithDefaults()
	return qual3D(cfg, hurricaneData(cfg), "Fig. 7: qualitative results on 3D Hurricane data (streamline divergence)")
}

// Fig8 reproduces the Nek5000 streamline comparison.
func Fig8(cfg Config) ([]QualRow, Table, error) {
	cfg = cfg.WithDefaults()
	return qual3D(cfg, nekData(cfg), "Fig. 8: qualitative results on 3D Nek5000 data (streamline divergence)")
}

func qual3D(cfg Config, ds dataset, title string) ([]QualRow, Table, error) {
	tr, tau, orig, err := ds.fit(cfg.TauRel)
	if err != nil {
		return nil, Table{}, err
	}
	f := &field.Field3D{NX: ds.dims[0], NY: ds.dims[1], NZ: ds.dims[2], U: ds.comps[0], V: ds.comps[1], W: ds.comps[2]}
	seeds := analysis.DiagonalSeeds3D(f, 12)
	base := analysis.TraceAll3D(f, seeds, 0.25, 400)

	methods, err := qualMethods(ds, tr, tau, 0.05, fpzipPrec)
	if err != nil {
		return nil, Table{}, err
	}
	var rows []QualRow
	for _, m := range methods {
		row, _, g, err := m.eval(ds, tr, orig)
		if err != nil {
			return nil, Table{}, err
		}
		dec := &field.Field3D{NX: f.NX, NY: f.NY, NZ: f.NZ, U: g[0], V: g[1], W: g[2]}
		row.StreamDiv = analysis.StreamlineDivergence(base, analysis.TraceAll3D(dec, seeds, 0.25, 400))
		rows = append(rows, row)
	}
	return rows, qualTable(title, rows, true), nil
}

// qualMethod is one compressor of a qualitative figure: run returns its
// decompressed components and compressed size.
type qualMethod struct {
	name string
	run  func() ([][]float32, int, error)
}

// qualMethods lists the compressors a qualitative figure compares on ds:
// ours (NoSpec, ST4), cpSZ coupled at cpszRel, and the given generic
// compressors tuned to our NoSpec size.
func qualMethods(ds dataset, tr fixed.Transform, tau, cpszRel float64, generics ...generic) ([]qualMethod, error) {
	ours, _, err := core.CompressBlock(ds.block(tr, core.Options{Tau: tau}))
	if err != nil {
		return nil, err
	}
	decode := func(blob []byte, decompress func([]byte) ([]int, [][]float32, error)) ([][]float32, int, error) {
		_, g, err := decompress(blob)
		return g, len(blob), err
	}
	methods := []qualMethod{
		{"ours-NoSpec", func() ([][]float32, int, error) { return decode(ours, core.Decompress) }},
		{"ours-ST4", func() ([][]float32, int, error) {
			b, _, err := core.CompressBlock(ds.block(tr, core.Options{Tau: tau, Spec: core.ST4}))
			if err != nil {
				return nil, 0, err
			}
			return decode(b, core.Decompress)
		}},
		{"cpSZ-coupled", func() ([][]float32, int, error) {
			b, err := cpsz.Compress(ds.dims, ds.comps, cpsz.Options{Rel: cpszRel, Scheme: cpsz.Coupled})
			if err != nil {
				return nil, 0, err
			}
			return decode(b, cpsz.Decompress)
		}},
	}
	for _, gen := range generics {
		methods = append(methods, qualMethod{gen.name, func() ([][]float32, int, error) {
			codec, _ := gen.tune(ds, len(ours), nil)
			b, err := codec.Compress(ds.dims, ds.comps)
			if err != nil {
				return nil, 0, err
			}
			return decode(b, codec.Decompress)
		}})
	}
	return methods, nil
}

// eval runs m and compares the critical points of its output with orig.
// It returns the row, the output's critical points and its components.
func (m qualMethod) eval(ds dataset, tr fixed.Transform, orig []cp.Point) (QualRow, []cp.Point, [][]float32, error) {
	g, size, err := m.run()
	if err != nil {
		return QualRow{}, nil, nil, fmt.Errorf("%s: %w", m.name, err)
	}
	pts := cp.Detect(ds.dims, g, tr)
	row := QualRow{Method: m.name, Ratio: float64(ds.rawBytes()) / float64(size), Report: cp.Compare(orig, pts)}
	return row, pts, g, nil
}

func qualTable(title string, rows []QualRow, withDiv bool) Table {
	cols := []string{"Method", "Ratio", "#TP", "#FP", "#FN", "#FT"}
	if withDiv {
		cols = append(cols, "StreamlineDiv")
	} else {
		cols = append(cols, "Image")
	}
	t := Table{Title: title, Columns: cols}
	for _, r := range rows {
		row := []string{
			r.Method,
			fmt.Sprintf("%.2f", r.Ratio),
			fmt.Sprintf("%d", r.Report.TP),
			fmt.Sprintf("%d", r.Report.FP),
			fmt.Sprintf("%d", r.Report.FN),
			fmt.Sprintf("%d", r.Report.FT),
		}
		if withDiv {
			row = append(row, fmt.Sprintf("%.4f", r.StreamDiv))
		} else {
			row = append(row, r.Image)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
