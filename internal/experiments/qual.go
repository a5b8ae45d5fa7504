package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/baselines"
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
	f := oceanField(cfg)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		return nil, Table{}, err
	}
	tau := cfg.TauRel * field.Range(f.U, f.V)
	orig := cp.DetectField2D(f, tr)
	raw := 4 * 2 * len(f.U)

	ours, err := core.CompressField2D(f, tr, core.Options{Tau: tau})
	if err != nil {
		return nil, Table{}, err
	}
	target := len(ours)

	type method struct {
		name string
		run  func() (*field.Field2D, int, error)
	}
	rng := field.Range(f.U, f.V)
	methods := []method{
		{"original", func() (*field.Field2D, int, error) { return f, raw, nil }},
		{"ours-NoSpec", func() (*field.Field2D, int, error) {
			g, err := core.Decompress2D(ours)
			return g, len(ours), err
		}},
		{"ours-ST4", func() (*field.Field2D, int, error) {
			b, err := core.CompressField2D(f, tr, core.Options{Tau: tau, Spec: core.ST4})
			if err != nil {
				return nil, 0, err
			}
			g, err := core.Decompress2D(b)
			return g, len(b), err
		}},
		{"cpSZ-coupled", func() (*field.Field2D, int, error) {
			b, err := cpsz.Compress2D(f, cpsz.Options{Rel: 0.1, Scheme: cpsz.Coupled})
			if err != nil {
				return nil, 0, err
			}
			g, _, err := cpsz.Decompress(b)
			return g, len(b), err
		}},
		{"SZ3", func() (*field.Field2D, int, error) {
			abs := tuneFloat(rng*1e-7, rng, target, func(p float64) int {
				b, _ := baselines.SZLike{Abs: p}.Compress2D(f)
				return len(b)
			})
			b, err := baselines.SZLike{Abs: abs}.Compress2D(f)
			if err != nil {
				return nil, 0, err
			}
			g, err := baselines.SZLike{}.Decompress2D(b)
			return g, len(b), err
		}},
		{"ZFP", func() (*field.Field2D, int, error) {
			acc := tuneFloat(rng*1e-7, rng, target, func(p float64) int {
				b, _ := baselines.ZFPLike{Accuracy: p}.Compress2D(f)
				return len(b)
			})
			b, err := baselines.ZFPLike{Accuracy: acc}.Compress2D(f)
			if err != nil {
				return nil, 0, err
			}
			g, err := baselines.ZFPLike{}.Decompress2D(b)
			return g, len(b), err
		}},
		{"FPZIP", func() (*field.Field2D, int, error) {
			p := tuneInt(1, 32, target, func(p int) int {
				b, _ := baselines.FPZIPLike{Precision: p}.Compress2D(f)
				return len(b)
			})
			b, err := baselines.FPZIPLike{Precision: p}.Compress2D(f)
			if err != nil {
				return nil, 0, err
			}
			g, err := baselines.FPZIPLike{}.Decompress2D(b)
			return g, len(b), err
		}},
	}

	var rows []QualRow
	for _, m := range methods {
		g, size, err := m.run()
		if err != nil {
			return nil, Table{}, fmt.Errorf("%s: %w", m.name, err)
		}
		pts := cp.DetectField2D(g, tr)
		row := QualRow{
			Method: m.name,
			Ratio:  float64(raw) / float64(size),
			Report: cp.Compare(orig, pts),
		}
		if outDir != "" {
			img := analysis.LIC(g, 10, 7)
			color := analysis.OverlayCriticalPoints(img, g.NX, g.NY, pts)
			path := filepath.Join(outDir, "fig5-"+m.name+".ppm")
			file, err := os.Create(path)
			if err != nil {
				return nil, Table{}, err
			}
			if err := analysis.WritePPM(file, color, g.NX, g.NY); err != nil {
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
	f := hurricaneField(cfg)
	return qual3D(cfg, f, "Fig. 7: qualitative results on 3D Hurricane data (streamline divergence)")
}

// Fig8 reproduces the Nek5000 streamline comparison.
func Fig8(cfg Config) ([]QualRow, Table, error) {
	cfg = cfg.WithDefaults()
	f := nekField(cfg)
	return qual3D(cfg, f, "Fig. 8: qualitative results on 3D Nek5000 data (streamline divergence)")
}

func qual3D(cfg Config, f *field.Field3D, title string) ([]QualRow, Table, error) {
	tr, err := fixed.Fit(f.U, f.V, f.W)
	if err != nil {
		return nil, Table{}, err
	}
	tau := cfg.TauRel * field.Range(f.U, f.V, f.W)
	orig := cp.DetectField3D(f, tr)
	raw := 4 * 3 * len(f.U)
	seeds := analysis.DiagonalSeeds3D(f, 12)
	base := analysis.TraceAll3D(f, seeds, 0.25, 400)

	ours, err := core.CompressField3D(f, tr, core.Options{Tau: tau})
	if err != nil {
		return nil, Table{}, err
	}
	target := len(ours)

	type method struct {
		name string
		run  func() (*field.Field3D, int, error)
	}
	methods := []method{
		{"ours-NoSpec", func() (*field.Field3D, int, error) {
			g, err := core.Decompress3D(ours)
			return g, len(ours), err
		}},
		{"ours-ST4", func() (*field.Field3D, int, error) {
			b, err := core.CompressField3D(f, tr, core.Options{Tau: tau, Spec: core.ST4})
			if err != nil {
				return nil, 0, err
			}
			g, err := core.Decompress3D(b)
			return g, len(b), err
		}},
		{"cpSZ-coupled", func() (*field.Field3D, int, error) {
			b, err := cpsz.Compress3D(f, cpsz.Options{Rel: 0.05, Scheme: cpsz.Coupled})
			if err != nil {
				return nil, 0, err
			}
			_, g, err := cpsz.Decompress(b)
			return g, len(b), err
		}},
		{"FPZIP", func() (*field.Field3D, int, error) {
			p := tuneInt(1, 32, target, func(p int) int {
				b, _ := baselines.FPZIPLike{Precision: p}.Compress3D(f)
				return len(b)
			})
			b, err := baselines.FPZIPLike{Precision: p}.Compress3D(f)
			if err != nil {
				return nil, 0, err
			}
			g, err := baselines.FPZIPLike{}.Decompress3D(b)
			return g, len(b), err
		}},
	}

	var rows []QualRow
	for _, m := range methods {
		g, size, err := m.run()
		if err != nil {
			return nil, Table{}, fmt.Errorf("%s: %w", m.name, err)
		}
		rows = append(rows, QualRow{
			Method:    m.name,
			Ratio:     float64(raw) / float64(size),
			Report:    cp.Compare(orig, cp.DetectField3D(g, tr)),
			StreamDiv: analysis.StreamlineDivergence(base, analysis.TraceAll3D(g, seeds, 0.25, 400)),
		})
	}
	return rows, qualTable(title, rows, true), nil
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
