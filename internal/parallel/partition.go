// Package parallel implements the paper's distributed compression
// strategies (Section VI) on top of the simulated message-passing runtime
// (package mpi): naive block-independent compression (which breaks
// critical points in border cells), the simple lossless-border strategy
// (no communication, degraded ratio), and the ratio-oriented two-phase
// strategy (ghost exchange, near-single-node ratios).
package parallel

import "fmt"

// Strategy selects the distributed compression scheme.
type Strategy int

const (
	// Naive compresses blocks independently; critical points in cells
	// spanning rank boundaries are not protected.
	Naive Strategy = iota
	// LosslessBorders stores every border vertex losslessly — no
	// communication, full preservation, reduced ratio.
	LosslessBorders
	// RatioOriented runs the two-phase ghost-exchange protocol of Fig. 4:
	// full preservation with near-single-node ratios at the cost of two
	// communication rounds.
	RatioOriented
)

// String returns the name used in the tables.
func (s Strategy) String() string {
	switch s {
	case Naive:
		return "naive"
	case LosslessBorders:
		return "lossless-borders"
	case RatioOriented:
		return "ratio-oriented"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Span is one block's extent along one axis of the lossless-border
// decomposition. It is shared by the simulated-MPI drivers and the
// shared-memory pipeline (package shm) so both split a field identically.
type Span struct{ Start, Size int }

// Partition splits n grid points into p spans of near-equal size (the
// first n%p spans are one point larger). Every span must hold at least
// two points — a block needs one cell of depth.
func Partition(n, p int) ([]Span, error) {
	if p <= 0 || n < 2*p {
		return nil, fmt.Errorf("parallel: cannot split %d points into %d blocks of >=2", n, p)
	}
	base := n / p
	rem := n % p
	spans := make([]Span, p)
	pos := 0
	for i := range spans {
		size := base
		if i < rem {
			size++
		}
		spans[i] = Span{Start: pos, Size: size}
		pos += size
	}
	return spans, nil
}
