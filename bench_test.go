// Package repro's root benchmarks regenerate each of the paper's tables
// and figures (one benchmark per experiment; see DESIGN.md for the
// experiment index). They run at reduced dataset scale so `go test
// -bench=.` finishes in minutes; `cmd/cpbench` runs the full-scale
// versions.
package repro

import (
	"bytes"
	"testing"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/field"
	"repro/internal/fixed"
)

// benchCfg is the reduced scale used by the root benchmarks.
var benchCfg = experiments.Config{
	OceanNX: 128, OceanNY: 96,
	HurrNX: 32, HurrNY: 32, HurrNZ: 16,
	NekN: 24, RDNekN: 16, TurbBlock: 8,
}

func BenchmarkTable2NaiveVsLosslessBorders(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3RatioOriented(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5Ocean(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6Hurricane(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table6(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7Nek5000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table7(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5OceanQualitative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig5(benchCfg, ""); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6RateDistortion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig6(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7HurricaneStreamlines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig7(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8NekStreamlines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig8(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9ParallelIO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig9(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Ablation(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Throughput benchmarks of the compressor itself, per dataset.

func BenchmarkCompressOceanNoSpec(b *testing.B) {
	f := datagen.Ocean(256, 192)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * 2 * len(f.U)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CompressField2D(f, tr, core.Options{Tau: 0.05}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressNekST4(b *testing.B) {
	f := datagen.Nek5000(32, 32, 32)
	tr, err := fixed.Fit(f.U, f.V, f.W)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * 3 * len(f.U)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CompressField3D(f, tr, core.Options{Tau: 0.05, Spec: core.ST4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTemporalSeries(b *testing.B) {
	// A slowly drifting series compressed with temporal prediction.
	frames := make([]*field.Field3D, 4)
	for s := range frames {
		frames[s] = datagen.Turbulence(24, 24, 24, 9)
	}
	b.SetBytes(int64(4 * 3 * len(frames[0].U) * len(frames)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		sw := archive.NewStreamWriter(&buf)
		series := archive.NewSeries(sw)
		for _, f := range frames {
			if err := series.Append([]int{f.NX, f.NY, f.NZ}, f.Components(), core.Options{Tau: 0.05}); err != nil {
				b.Fatal(err)
			}
		}
		if err := sw.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressNek(b *testing.B) {
	f := datagen.Nek5000(32, 32, 32)
	tr, err := fixed.Fit(f.U, f.V, f.W)
	if err != nil {
		b.Fatal(err)
	}
	blob, err := core.CompressField3D(f, tr, core.Options{Tau: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * 3 * len(f.U)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Decompress3D(blob); err != nil {
			b.Fatal(err)
		}
	}
}
