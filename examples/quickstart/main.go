// Quickstart: compress a small synthetic vector field while preserving
// every critical point, decompress it, and verify the topology.
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/field"
	"repro/internal/fixed"
)

func main() {
	// Build a 64×64 field with a few vortices and saddles.
	f := field.NewField2D(64, 64)
	for j := 0; j < 64; j++ {
		for i := 0; i < 64; i++ {
			x := float64(i) / 63 * 4 * math.Pi
			y := float64(j) / 63 * 4 * math.Pi
			idx := f.Idx(i, j)
			f.U[idx] = float32(math.Sin(x) * math.Cos(y))
			f.V[idx] = float32(-math.Cos(x) * math.Sin(y))
		}
	}

	// Ground truth: robust (SoS) critical point extraction.
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		log.Fatal(err)
	}
	orig := cp.Detect(f.Dims(), f.Components(), tr)
	fmt.Printf("original field: %d critical points\n", len(orig))

	// Compress with the most aggressive speculation target; the critical
	// points are preserved exactly no matter the target.
	blob, _, err := core.Compress(f.Dims(), f.Components(), core.Options{Tau: 0.02, Spec: core.ST4})
	if err != nil {
		log.Fatal(err)
	}
	raw := 4 * (len(f.U) + len(f.V))
	fmt.Printf("compressed %d -> %d bytes (ratio %.1fx)\n", raw, len(blob),
		float64(raw)/float64(len(blob)))

	dims, dec, err := core.Decompress(blob)
	if err != nil {
		log.Fatal(err)
	}
	rep := cp.Compare(orig, cp.Detect(dims, dec, tr))
	fmt.Printf("critical points after decompression: %v\n", rep)
	fmt.Printf("PSNR: %.1f dB\n", analysis.PSNR(f.Components(), dec))
	if !rep.Preserved() {
		log.Fatal("critical points were not preserved!")
	}
	fmt.Println("topology preserved ✓")

	// Show the extracted points with their classified types.
	for i, p := range orig {
		if i >= 6 {
			fmt.Printf("  ... and %d more\n", len(orig)-6)
			break
		}
		fmt.Printf("  cell %5d: %-16s at (%.2f, %.2f)\n", p.Cell, p.Type, p.Pos[0], p.Pos[1])
	}
}
