// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VII) on the synthetic datasets of package datagen:
//
//	Table II   — naive vs lossless-border parallelization (Nek5000)
//	Table III  — ratio-oriented parallelization (Nek5000)
//	Table V    — 2D Ocean quantitative comparison
//	Table VI   — 3D Hurricane quantitative comparison
//	Table VII  — 3D Nek5000 quantitative comparison
//	Fig. 5     — qualitative Ocean LIC + critical point overlays
//	Fig. 6     — rate–distortion under speculation targets
//	Figs. 7/8  — qualitative 3D streamline comparisons (as divergence stats)
//	Fig. 9     — parallel I/O write/read times (Turbulence)
//
// Dataset sizes default to laptop scale (the paper's absolute numbers come
// from a 128-core cluster; the *shape* of every comparison is what this
// package reproduces) and can be raised through Config.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// Config scales the experiments.
type Config struct {
	OceanNX, OceanNY       int     // Table V / Figs. 5–6 (default 384×288)
	HurrNX, HurrNY, HurrNZ int     // Table VI / Fig. 7 (default 64×64×32)
	NekN                   int     // Tables II/III/VII / Fig. 8 (default 64)
	RDNekN                 int     // Fig. 6 3D dataset (default 40)
	TurbBlock              int     // Fig. 9 per-rank block side (default 24)
	Fig9Grids              []int   // Fig. 9 rank-grid sides; ranks = side³ (default {2, 4} ⇒ 8 and 64 ranks)
	TauRel                 float64 // our method's bound as a fraction of the value range (default 0.01)

	// Tel, when non-nil, collects per-run stage spans and the engine and
	// communication counters of every compression the experiment performs.
	Tel *telemetry.Collector `json:"-"`

	// Faults, when non-nil, injects worker/stream faults into the
	// shared-memory scaling runs (resilience benchmarking).
	Faults *faultinject.Injector `json:"-"`
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	def := func(p *int, v int) {
		if *p == 0 {
			*p = v
		}
	}
	def(&c.OceanNX, 384)
	def(&c.OceanNY, 288)
	def(&c.HurrNX, 64)
	def(&c.HurrNY, 64)
	def(&c.HurrNZ, 32)
	def(&c.NekN, 64)
	def(&c.RDNekN, 40)
	def(&c.TurbBlock, 24)
	if len(c.Fig9Grids) == 0 {
		c.Fig9Grids = []int{2, 4}
	}
	if c.TauRel == 0 {
		c.TauRel = 0.01
	}
	return c
}

// Table is a formatted experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Format writes the table as aligned text.
func (t *Table) Format(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	t.Format(&sb)
	return sb.String()
}

// CSV writes the table as CSV (header row first) for plotting tools.
func (t *Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// timeIt measures one execution of f.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// timeOneCore measures one execution of f under GOMAXPROCS 1. The
// paper's timings are per core, but core sweeps the pieces of a
// whole-domain compress on every core (DESIGN.md, "Pieces"); the tables that
// compare codecs or rank counts time them this way to compare like with
// like.
func timeOneCore(f func()) time.Duration {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return timeIt(f)
}

// mbps converts bytes and a duration to MB/s.
func mbps(bytes int, d time.Duration) float64 {
	s := d.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / s
}

// valueRange returns max-min over the component slices.

// tuneFloat finds (by geometric bisection) a parameter p in [lo, hi] such
// that size(p) is close to target. size must be monotone decreasing in p
// (larger tolerance ⇒ smaller output).
func tuneFloat(lo, hi float64, target int, size func(p float64) int) float64 {
	for iter := 0; iter < 18; iter++ {
		mid := math.Sqrt(lo * hi)
		s := size(mid)
		if s > target {
			lo = mid // too large output: loosen
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi)
}

// tuneInt finds the integer parameter in [lo, hi] whose output size is
// closest to target. size must be monotone increasing in p.
func tuneInt(lo, hi, target int, size func(p int) int) int {
	best := lo
	bestDiff := math.MaxInt64
	for lo <= hi {
		mid := (lo + hi) / 2
		s := size(mid)
		diff := s - target
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			best, bestDiff = mid, diff
		}
		if s > target {
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	return best
}
