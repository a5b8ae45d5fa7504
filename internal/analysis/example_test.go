package analysis_test

import (
	"fmt"

	"repro/internal/analysis"
)

// ExamplePSNR computes the rate-distortion metric used by Fig. 6.
func ExamplePSNR() {
	orig := [][]float32{{0, 1, 2, 3}}
	dec := [][]float32{{0, 1, 2, 3}}
	fmt.Println(analysis.PSNR(orig, dec))
	// Output:
	// +Inf
}
