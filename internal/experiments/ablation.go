package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cp"
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
	for _, ds := range []dataset{oceanData(cfg), nekData(cfg)} {
		tr, tau, orig, err := ds.fit(cfg.TauRel)
		if err != nil {
			return nil, Table{}, err
		}
		variants := []struct {
			name string
			opts core.Options
		}{
			{"full", core.Options{Tau: tau}},
			{"no-relaxation", core.Options{Tau: tau, DisableRelaxation: true}},
			{"orientation-only", core.Options{Tau: tau, OrientationOnly: true}},
			{"ST4", core.Options{Tau: tau, Spec: core.ST4}},
		}
		if len(ds.dims) == 3 {
			variants = variants[:3] // the speculation ladder runs in 2D only
		}
		for _, v := range variants {
			blob, st, err := core.CompressBlock(ds.block(tr, v.opts))
			if err != nil {
				return nil, Table{}, err
			}
			_, g, err := core.Decompress(blob)
			if err != nil {
				return nil, Table{}, err
			}
			rows = append(rows, AblationRow{
				Dataset: ds.name,
				Variant: v.name,
				CRAll:   float64(ds.rawBytes()) / float64(len(blob)),
				Report:  cp.Compare(orig, cp.Detect(ds.dims, g, tr)),
				Stats:   st,
			})
		}
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
