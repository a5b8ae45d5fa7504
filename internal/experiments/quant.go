package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/cpsz"
	"repro/internal/field"
	"repro/internal/fixed"
)

// QuantRow is one row of the quantitative comparison tables (V–VII).
type QuantRow struct {
	Compressor string
	Settings   string
	CRPer      []float64 // per-component ratios (nil when not applicable)
	CRAll      float64
	ScMBps     float64
	SdMBps     float64
	Report     cp.Report
}

// QuantResult holds a full quantitative table plus raw rows for benches.
type QuantResult struct {
	Table Table
	Rows  []QuantRow
}

func fmtRatio(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", v)
}

func quantTable(title string, ncomp int, rows []QuantRow) QuantResult {
	cols := []string{"Compressor", "Settings"}
	comps := []string{"CR_u", "CR_v", "CR_w"}[:ncomp]
	cols = append(cols, comps...)
	cols = append(cols, "CR_all", "S_c(MB/s)", "S_d(MB/s)", "#TP", "#FP", "#FN", "#FT")
	t := Table{Title: title, Columns: cols}
	for _, r := range rows {
		row := []string{r.Compressor, r.Settings}
		for c := 0; c < ncomp; c++ {
			if r.CRPer == nil {
				row = append(row, "-")
			} else {
				row = append(row, fmtRatio(r.CRPer[c]))
			}
		}
		row = append(row,
			fmt.Sprintf("%.2f", r.CRAll),
			fmt.Sprintf("%.2f", r.ScMBps),
			fmt.Sprintf("%.2f", r.SdMBps),
			fmt.Sprintf("%d", r.Report.TP),
			fmt.Sprintf("%d", r.Report.FP),
			fmt.Sprintf("%d", r.Report.FN),
			fmt.Sprintf("%d", r.Report.FT),
		)
		t.Rows = append(t.Rows, row)
	}
	return QuantResult{Table: t, Rows: rows}
}

// Table5 reproduces the 2D Ocean quantitative comparison.
func Table5(cfg Config) (QuantResult, error) {
	cfg = cfg.WithDefaults()
	return quant2D(cfg, "Table V: quantitative results on 2D Ocean data")
}

func quant2D(cfg Config, title string) (QuantResult, error) {
	f := oceanField(cfg)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		return QuantResult{}, err
	}
	raw := 4 * (len(f.U) + len(f.V))
	tau := cfg.TauRel * field.Range(f.U, f.V)
	orig := cp.DetectField2D(f, tr)

	var rows []QuantRow
	var target int

	// Our method, all speculation targets. NoSpec sets the ratio target
	// for tuning the generic compressors.
	for _, spec := range []core.Speculation{core.NoSpec, core.ST1, core.ST2, core.ST3, core.ST4} {
		var blob []byte
		var cerr error
		sp := cfg.Tel.Span("ours-" + spec.String())
		dc := timeIt(func() {
			blob, cerr = core.CompressField2D(f, tr, core.Options{Tau: tau, Spec: spec, Tel: cfg.Tel, TelSpan: sp})
		})
		if cerr != nil {
			return QuantResult{}, cerr
		}
		var g *field.Field2D
		dd := timeIt(func() { g, cerr = core.Decompress2D(blob) })
		sp.AddChild("decompress", dd)
		sp.End()
		if cerr != nil {
			return QuantResult{}, cerr
		}
		rep := cp.Compare(orig, cp.DetectField2D(g, tr))
		rows = append(rows, QuantRow{
			Compressor: "Ours", Settings: fmt.Sprintf("%v -R %.3g", spec, cfg.TauRel),
			CRAll:  float64(raw) / float64(len(blob)),
			ScMBps: mbps(raw, dc), SdMBps: mbps(raw, dd), Report: rep,
		})
		if spec == core.NoSpec {
			target = len(blob)
		}
	}

	// cpSZ, both schemes, -R 0.1 (the authors' suggested 2D setting).
	for _, scheme := range []cpsz.Scheme{cpsz.Decoupled, cpsz.Coupled} {
		var blob []byte
		var cerr error
		sp := cfg.Tel.Span("cpsz-" + scheme.String())
		dc := timeIt(func() {
			blob, cerr = cpsz.Compress2D(f, cpsz.Options{Rel: 0.1, Scheme: scheme, Tel: cfg.Tel, TelSpan: sp})
		})
		if cerr != nil {
			return QuantResult{}, cerr
		}
		var g *field.Field2D
		dd := timeIt(func() { g, _, cerr = cpsz.Decompress(blob) })
		sp.AddChild("decompress", dd)
		sp.End()
		if cerr != nil {
			return QuantResult{}, cerr
		}
		rep := cp.Compare(orig, cp.DetectField2D(g, tr))
		rows = append(rows, QuantRow{
			Compressor: "cpSZ", Settings: scheme.String() + " -R 0.1",
			CRAll:  float64(raw) / float64(len(blob)),
			ScMBps: mbps(raw, dc), SdMBps: mbps(raw, dd), Report: rep,
		})
	}

	// Generic compressors tuned to our NoSpec ratio.
	rng := field.Range(f.U, f.V)

	// SZ3-like, absolute bound.
	szAbs := tuneFloat(rng*1e-7, rng, target, func(p float64) int {
		b, _ := baselines.SZLike{Abs: p}.Compress2D(f)
		return len(b)
	})
	sz := baselines.SZLike{Abs: szAbs, Tel: cfg.Tel}
	rows = append(rows, evalBaseline2D(f, tr, orig, raw,
		"SZ3", fmt.Sprintf("-A %.3g", szAbs),
		func() ([]byte, error) { return sz.Compress2D(f) },
		func(b []byte) (*field.Field2D, error) { return sz.Decompress2D(b) },
		func(c []float32) int { n, _ := sz.CompressedSizeOne(f.NX, f.NY, 1, c); return n },
	))

	// ZFP-like, accuracy mode.
	zfpAcc := tuneFloat(rng*1e-7, rng, target, func(p float64) int {
		b, _ := baselines.ZFPLike{Accuracy: p}.Compress2D(f)
		return len(b)
	})
	za := baselines.ZFPLike{Accuracy: zfpAcc, Tel: cfg.Tel}
	rows = append(rows, evalBaseline2D(f, tr, orig, raw,
		"ZFP", fmt.Sprintf("-A %.3g", zfpAcc),
		func() ([]byte, error) { return za.Compress2D(f) },
		func(b []byte) (*field.Field2D, error) { return za.Decompress2D(b) },
		func(c []float32) int { n, _ := za.CompressedSizeOne(f.NX, f.NY, 1, c); return n },
	))

	// ZFP-like, precision mode.
	zfpP := tuneInt(1, 30, target, func(p int) int {
		b, _ := baselines.ZFPLike{Precision: p}.Compress2D(f)
		return len(b)
	})
	zp := baselines.ZFPLike{Precision: zfpP, Tel: cfg.Tel}
	rows = append(rows, evalBaseline2D(f, tr, orig, raw,
		"ZFP", fmt.Sprintf("-P %d", zfpP),
		func() ([]byte, error) { return zp.Compress2D(f) },
		func(b []byte) (*field.Field2D, error) { return zp.Decompress2D(b) },
		func(c []float32) int { n, _ := zp.CompressedSizeOne(f.NX, f.NY, 1, c); return n },
	))

	// FPZIP-like, precision mode.
	fpP := tuneInt(1, 32, target, func(p int) int {
		b, _ := baselines.FPZIPLike{Precision: p}.Compress2D(f)
		return len(b)
	})
	fp := baselines.FPZIPLike{Precision: fpP, Tel: cfg.Tel}
	rows = append(rows, evalBaseline2D(f, tr, orig, raw,
		"FPZIP", fmt.Sprintf("-P %d", fpP),
		func() ([]byte, error) { return fp.Compress2D(f) },
		func(b []byte) (*field.Field2D, error) { return fp.Decompress2D(b) },
		func(c []float32) int { n, _ := fp.CompressedSizeOne(f.NX, f.NY, 1, c); return n },
	))

	// Present in the paper's order: generic compressors, cpSZ, ours.
	ordered := make([]QuantRow, 0, len(rows))
	ordered = append(ordered, rows[7:]...)
	ordered = append(ordered, rows[5], rows[6])
	ordered = append(ordered, rows[:5]...)
	return quant2DResult(title, ordered), nil
}

func quant2DResult(title string, rows []QuantRow) QuantResult {
	return quantTable(title, 2, rows)
}

func evalBaseline2D(f *field.Field2D, tr fixed.Transform, orig []cp.Point, raw int,
	name, settings string,
	compress func() ([]byte, error),
	decompress func([]byte) (*field.Field2D, error),
	sizeOne func([]float32) int) QuantRow {

	var blob []byte
	var err error
	dc := timeIt(func() { blob, err = compress() })
	if err != nil {
		return QuantRow{Compressor: name, Settings: settings + " (error: " + err.Error() + ")"}
	}
	var g *field.Field2D
	dd := timeIt(func() { g, err = decompress(blob) })
	if err != nil {
		return QuantRow{Compressor: name, Settings: settings + " (error: " + err.Error() + ")"}
	}
	rep := cp.Compare(orig, cp.DetectField2D(g, tr))
	perRaw := 4 * len(f.U)
	return QuantRow{
		Compressor: name, Settings: settings,
		CRPer: []float64{
			float64(perRaw) / float64(sizeOne(f.U)),
			float64(perRaw) / float64(sizeOne(f.V)),
		},
		CRAll:  float64(raw) / float64(len(blob)),
		ScMBps: mbps(raw, dc), SdMBps: mbps(raw, dd), Report: rep,
	}
}

// Table6 reproduces the 3D Hurricane quantitative comparison.
func Table6(cfg Config) (QuantResult, error) {
	cfg = cfg.WithDefaults()
	f := hurricaneField(cfg)
	return quant3D(cfg, f, "Table VI: quantitative results on 3D Hurricane data")
}

// Table7 reproduces the 3D Nek5000 quantitative comparison.
func Table7(cfg Config) (QuantResult, error) {
	cfg = cfg.WithDefaults()
	f := nekField(cfg)
	return quant3D(cfg, f, "Table VII: quantitative results on 3D Nek5000 data")
}

func quant3D(cfg Config, f *field.Field3D, title string) (QuantResult, error) {
	tr, err := fixed.Fit(f.U, f.V, f.W)
	if err != nil {
		return QuantResult{}, err
	}
	raw := 4 * 3 * len(f.U)
	tau := cfg.TauRel * field.Range(f.U, f.V, f.W)
	orig := cp.DetectField3D(f, tr)

	var rows []QuantRow
	var target int
	for _, spec := range []core.Speculation{core.NoSpec, core.ST1, core.ST2, core.ST3, core.ST4} {
		var blob []byte
		var cerr error
		sp := cfg.Tel.Span("ours-" + spec.String())
		dc := timeIt(func() {
			blob, cerr = core.CompressField3D(f, tr, core.Options{Tau: tau, Spec: spec, Tel: cfg.Tel, TelSpan: sp})
		})
		if cerr != nil {
			return QuantResult{}, cerr
		}
		var g *field.Field3D
		dd := timeIt(func() { g, cerr = core.Decompress3D(blob) })
		sp.AddChild("decompress", dd)
		sp.End()
		if cerr != nil {
			return QuantResult{}, cerr
		}
		rep := cp.Compare(orig, cp.DetectField3D(g, tr))
		rows = append(rows, QuantRow{
			Compressor: "Ours", Settings: fmt.Sprintf("%v -R %.3g", spec, cfg.TauRel),
			CRAll:  float64(raw) / float64(len(blob)),
			ScMBps: mbps(raw, dc), SdMBps: mbps(raw, dd), Report: rep,
		})
		if spec == core.NoSpec {
			target = len(blob)
		}
	}

	for _, scheme := range []cpsz.Scheme{cpsz.Decoupled, cpsz.Coupled} {
		var blob []byte
		var cerr error
		sp := cfg.Tel.Span("cpsz-" + scheme.String())
		dc := timeIt(func() {
			blob, cerr = cpsz.Compress3D(f, cpsz.Options{Rel: 0.05, Scheme: scheme, Tel: cfg.Tel, TelSpan: sp})
		})
		if cerr != nil {
			return QuantResult{}, cerr
		}
		var g *field.Field3D
		dd := timeIt(func() { _, g, cerr = cpsz.Decompress(blob) })
		sp.AddChild("decompress", dd)
		sp.End()
		if cerr != nil {
			return QuantResult{}, cerr
		}
		rep := cp.Compare(orig, cp.DetectField3D(g, tr))
		rows = append(rows, QuantRow{
			Compressor: "cpSZ", Settings: scheme.String() + " -R 0.05",
			CRAll:  float64(raw) / float64(len(blob)),
			ScMBps: mbps(raw, dc), SdMBps: mbps(raw, dd), Report: rep,
		})
	}

	rng := field.Range(f.U, f.V, f.W)
	szAbs := tuneFloat(rng*1e-7, rng, target, func(p float64) int {
		b, _ := baselines.SZLike{Abs: p}.Compress3D(f)
		return len(b)
	})
	sz := baselines.SZLike{Abs: szAbs, Tel: cfg.Tel}
	rows = append(rows, evalBaseline3D(f, tr, orig, raw,
		"SZ3", fmt.Sprintf("-A %.3g", szAbs),
		func() ([]byte, error) { return sz.Compress3D(f) },
		func(b []byte) (*field.Field3D, error) { return sz.Decompress3D(b) },
		func(c []float32) int { n, _ := sz.CompressedSizeOne(f.NX, f.NY, f.NZ, c); return n },
	))

	zfpAcc := tuneFloat(rng*1e-7, rng, target, func(p float64) int {
		b, _ := baselines.ZFPLike{Accuracy: p}.Compress3D(f)
		return len(b)
	})
	za := baselines.ZFPLike{Accuracy: zfpAcc, Tel: cfg.Tel}
	rows = append(rows, evalBaseline3D(f, tr, orig, raw,
		"ZFP", fmt.Sprintf("-A %.3g", zfpAcc),
		func() ([]byte, error) { return za.Compress3D(f) },
		func(b []byte) (*field.Field3D, error) { return za.Decompress3D(b) },
		func(c []float32) int { n, _ := za.CompressedSizeOne(f.NX, f.NY, f.NZ, c); return n },
	))

	zfpP := tuneInt(1, 30, target, func(p int) int {
		b, _ := baselines.ZFPLike{Precision: p}.Compress3D(f)
		return len(b)
	})
	zp := baselines.ZFPLike{Precision: zfpP, Tel: cfg.Tel}
	rows = append(rows, evalBaseline3D(f, tr, orig, raw,
		"ZFP", fmt.Sprintf("-P %d", zfpP),
		func() ([]byte, error) { return zp.Compress3D(f) },
		func(b []byte) (*field.Field3D, error) { return zp.Decompress3D(b) },
		func(c []float32) int { n, _ := zp.CompressedSizeOne(f.NX, f.NY, f.NZ, c); return n },
	))

	fpP := tuneInt(1, 32, target, func(p int) int {
		b, _ := baselines.FPZIPLike{Precision: p}.Compress3D(f)
		return len(b)
	})
	fp := baselines.FPZIPLike{Precision: fpP, Tel: cfg.Tel}
	rows = append(rows, evalBaseline3D(f, tr, orig, raw,
		"FPZIP", fmt.Sprintf("-P %d", fpP),
		func() ([]byte, error) { return fp.Compress3D(f) },
		func(b []byte) (*field.Field3D, error) { return fp.Decompress3D(b) },
		func(c []float32) int { n, _ := fp.CompressedSizeOne(f.NX, f.NY, f.NZ, c); return n },
	))

	ordered := make([]QuantRow, 0, len(rows))
	ordered = append(ordered, rows[7:]...)
	ordered = append(ordered, rows[5], rows[6])
	ordered = append(ordered, rows[:5]...)
	return quantTable(title, 3, ordered), nil
}

func evalBaseline3D(f *field.Field3D, tr fixed.Transform, orig []cp.Point, raw int,
	name, settings string,
	compress func() ([]byte, error),
	decompress func([]byte) (*field.Field3D, error),
	sizeOne func([]float32) int) QuantRow {

	var blob []byte
	var err error
	dc := timeIt(func() { blob, err = compress() })
	if err != nil {
		return QuantRow{Compressor: name, Settings: settings + " (error: " + err.Error() + ")"}
	}
	var g *field.Field3D
	dd := timeIt(func() { g, err = decompress(blob) })
	if err != nil {
		return QuantRow{Compressor: name, Settings: settings + " (error: " + err.Error() + ")"}
	}
	rep := cp.Compare(orig, cp.DetectField3D(g, tr))
	perRaw := 4 * len(f.U)
	return QuantRow{
		Compressor: name, Settings: settings,
		CRPer: []float64{
			float64(perRaw) / float64(sizeOne(f.U)),
			float64(perRaw) / float64(sizeOne(f.V)),
			float64(perRaw) / float64(sizeOne(f.W)),
		},
		CRAll:  float64(raw) / float64(len(blob)),
		ScMBps: mbps(raw, dc), SdMBps: mbps(raw, dd), Report: rep,
	}
}
