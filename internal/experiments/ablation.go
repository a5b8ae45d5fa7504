package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/field"
	"repro/internal/fixed"
)

// AblationRow is one configuration of the ablation study.
type AblationRow struct {
	Dataset string
	Variant string
	CRAll   float64
	Report  cp.Report
	Stats   core.Stats
}

// Ablation isolates the contribution of the design choices DESIGN.md
// calls out: the sign-uniformity relaxation (ratio), the
// origin-substituted sub-predicates of Theorem 2 (soundness), and the
// speculation ladder:
//
//	full            — Algorithm 2 as published (NoSpec)
//	no-relaxation   — lines 11–15 disabled (sound; lower ratio on data
//	                  with sign-uniform regions)
//	orientation-only— Ψ(Λ) without the sub-predicates (UNSOUND: shows up
//	                  as false cases)
//	ST4             — the full speculation ladder, for scale
func Ablation(cfg Config) ([]AblationRow, Table, error) {
	cfg = cfg.WithDefaults()
	var rows []AblationRow

	run2D := func(dataset string, f *field.Field2D) error {
		tr, err := fixed.Fit(f.U, f.V)
		if err != nil {
			return err
		}
		tau := cfg.TauRel * field.Range(f.U, f.V)
		orig := cp.DetectField2D(f, tr)
		raw := 4 * 2 * len(f.U)
		for _, v := range []struct {
			name string
			opts core.Options
		}{
			{"full", core.Options{Tau: tau}},
			{"no-relaxation", core.Options{Tau: tau, DisableRelaxation: true}},
			{"orientation-only", core.Options{Tau: tau, OrientationOnly: true}},
			{"ST4", core.Options{Tau: tau, Spec: core.ST4}},
		} {
			blob, st, err := core.CompressBlock(core.Block{
				Dims: []int{f.NX, f.NY}, Comps: f.Components(), Transform: tr, Opts: v.opts,
			})
			if err != nil {
				return err
			}
			g, err := core.Decompress2D(blob)
			if err != nil {
				return err
			}
			rows = append(rows, AblationRow{
				Dataset: dataset,
				Variant: v.name,
				CRAll:   float64(raw) / float64(len(blob)),
				Report:  cp.Compare(orig, cp.DetectField2D(g, tr)),
				Stats:   st,
			})
		}
		return nil
	}

	if err := run2D("Ocean", oceanField(cfg)); err != nil {
		return nil, Table{}, err
	}

	// 3D variant on the Nek5000 stand-in.
	f := nekField(cfg)
	tr, err := fixed.Fit(f.U, f.V, f.W)
	if err != nil {
		return nil, Table{}, err
	}
	tau := cfg.TauRel * field.Range(f.U, f.V, f.W)
	orig := cp.DetectField3D(f, tr)
	raw := 4 * 3 * len(f.U)
	for _, v := range []struct {
		name string
		opts core.Options
	}{
		{"full", core.Options{Tau: tau}},
		{"no-relaxation", core.Options{Tau: tau, DisableRelaxation: true}},
		{"orientation-only", core.Options{Tau: tau, OrientationOnly: true}},
	} {
		blob, st, err := core.CompressBlock(core.Block{
			Dims: []int{f.NX, f.NY, f.NZ}, Comps: f.Components(), Transform: tr, Opts: v.opts,
		})
		if err != nil {
			return nil, Table{}, err
		}
		g, err := core.Decompress3D(blob)
		if err != nil {
			return nil, Table{}, err
		}
		rows = append(rows, AblationRow{
			Dataset: "Nek5000",
			Variant: v.name,
			CRAll:   float64(raw) / float64(len(blob)),
			Report:  cp.Compare(orig, cp.DetectField3D(g, tr)),
			Stats:   st,
		})
	}

	t := Table{
		Title:   "Ablation: contribution of the derivation components",
		Columns: []string{"Dataset", "Variant", "CR_all", "#TP", "#FP", "#FN", "#FT", "Lossless", "Relaxed"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Dataset, r.Variant,
			fmt.Sprintf("%.2f", r.CRAll),
			fmt.Sprintf("%d", r.Report.TP),
			fmt.Sprintf("%d", r.Report.FP),
			fmt.Sprintf("%d", r.Report.FN),
			fmt.Sprintf("%d", r.Report.FT),
			fmt.Sprintf("%d", r.Stats.Lossless),
			fmt.Sprintf("%d", r.Stats.Relaxed),
		})
	}
	return rows, t, nil
}
