package experiments

import (
	"sync"

	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/datagen"
	"repro/internal/field"
	"repro/internal/fixed"
)

// Dataset construction is deterministic; cache instances so that several
// experiments in one process share them.
var (
	dsMu    sync.Mutex
	ocean2D = map[[2]int]*field.Field2D{}
	hurr3D  = map[[3]int]*field.Field3D{}
	nek3D   = map[int]*field.Field3D{}
)

func oceanField(cfg Config) *field.Field2D {
	dsMu.Lock()
	defer dsMu.Unlock()
	key := [2]int{cfg.OceanNX, cfg.OceanNY}
	f, ok := ocean2D[key]
	if !ok {
		f = datagen.Ocean(cfg.OceanNX, cfg.OceanNY)
		ocean2D[key] = f
	}
	return f
}

func hurricaneField(cfg Config) *field.Field3D {
	dsMu.Lock()
	defer dsMu.Unlock()
	key := [3]int{cfg.HurrNX, cfg.HurrNY, cfg.HurrNZ}
	f, ok := hurr3D[key]
	if !ok {
		f = datagen.Hurricane(cfg.HurrNX, cfg.HurrNY, cfg.HurrNZ)
		hurr3D[key] = f
	}
	return f
}

func nekField(cfg Config) *field.Field3D {
	dsMu.Lock()
	defer dsMu.Unlock()
	f, ok := nek3D[cfg.NekN]
	if !ok {
		f = datagen.Nek5000(cfg.NekN, cfg.NekN, cfg.NekN)
		nek3D[cfg.NekN] = f
	}
	return f
}

// dataset is one evaluation field in the dimension-free form every study
// runs on: dims [NX, NY] or [NX, NY, NZ], one component per dimension.
type dataset struct {
	name  string
	dims  []int
	comps [][]float32
}

func oceanData(cfg Config) dataset {
	f := oceanField(cfg)
	return dataset{"Ocean", []int{f.NX, f.NY}, f.Components()}
}

func hurricaneData(cfg Config) dataset { return data3D("Hurricane", hurricaneField(cfg)) }

func nekData(cfg Config) dataset { return data3D("Nek5000", nekField(cfg)) }

func data3D(name string, f *field.Field3D) dataset {
	return dataset{name, []int{f.NX, f.NY, f.NZ}, f.Components()}
}

// rawBytes is the uncompressed float32 size of the field.
func (d dataset) rawBytes() int { return 4 * len(d.comps) * len(d.comps[0]) }

// block is the single-node core block of the field under tr and opts.
func (d dataset) block(tr fixed.Transform, opts core.Options) core.Block {
	return core.Block{Dims: d.dims, Comps: d.comps, Transform: tr, Opts: opts}
}

// fit returns the field's fixed-point transform, its absolute bound at
// the range-relative tauRel, and its critical points.
func (d dataset) fit(tauRel float64) (fixed.Transform, float64, []cp.Point, error) {
	tr, err := fixed.Fit(d.comps...)
	if err != nil {
		return tr, 0, nil, err
	}
	return tr, tauRel * field.Range(d.comps...), cp.Detect(d.dims, d.comps, tr), nil
}
