package parallel

import (
	"errors"
	"fmt"

	"repro/internal/fixed"
	"repro/internal/safedim"
)

// decomposition is the rank layout of one distributed run: the global
// dims and, per axis, the ranks' spans along it. A 2D run is a 3D one
// with a single rank along a unit Z axis.
type decomposition struct {
	dims  []int
	spans [][]Span
	grid  [3]int
}

// decompose splits dims over grid, grid[a] ranks along axis a. A grid
// of the wrong length is an error, as is an axis too short for its ranks.
func decompose(dims, grid []int) (decomposition, error) {
	if len(grid) != len(dims) {
		return decomposition{}, fmt.Errorf("parallel: rank grid %v for %d dims", grid, len(dims))
	}
	d := decomposition{dims: dims, spans: make([][]Span, len(dims)), grid: [3]int{1, 1, 1}}
	for a := range dims {
		spans, err := Partition(dims[a], grid[a])
		if err != nil {
			return decomposition{}, err
		}
		d.spans[a], d.grid[a] = spans, grid[a]
	}
	return d, nil
}

// ranks returns the rank count.
func (d decomposition) ranks() int { return safedim.MustProduct(d.grid[:]...) }

// coords maps a rank to its grid position (X fastest).
func (d decomposition) coords(rank int) [3]int {
	return [3]int{rank % d.grid[0], (rank / d.grid[0]) % d.grid[1], rank / (d.grid[0] * d.grid[1])}
}

// box returns the origin and own dims of the sub-block at grid position p.
func (d decomposition) box(p [3]int) (origin, size []int) {
	origin, size = make([]int, len(d.dims)), make([]int, len(d.dims))
	for a, spans := range d.spans {
		origin[a], size[a] = spans[p[a]].Start, spans[p[a]].Size
	}
	return origin, size
}

// boxCopy moves the sub-block of own dims size at origin between a
// global component of dims d.dims and a dense block buffer: it gathers
// into box when gather is set and scatters from it otherwise.
func (d decomposition) boxCopy(global, box []float32, origin, size []int, gather bool) {
	dims, o, s := [3]int{1, 1, 1}, [3]int{}, [3]int{1, 1, 1}
	copy(dims[:], d.dims)
	copy(o[:], origin)
	copy(s[:], size)
	for k := 0; k < s[2]; k++ {
		for j := 0; j < s[1]; j++ {
			g := ((o[2]+k)*dims[1]+(o[1]+j))*dims[0] + o[0]
			b := (k*s[1] + j) * s[0]
			if gather {
				copy(box[b:b+s[0]], global[g:])
			} else {
				copy(global[g:g+s[0]], box[b:])
			}
		}
	}
}

// globalIndex re-bases a value error of the sub-block of own dims size
// at origin onto the field, so the caller is told where in its input
// the value sits.
func (d decomposition) globalIndex(err error, origin, size []int) error {
	var de *fixed.DomainError
	if errors.As(err, &de) && de.Param == "" {
		local, g, stride := de.Index, 0, 1
		for a := range size {
			g += (origin[a] + local%size[a]) * stride
			local /= size[a]
			stride *= d.dims[a]
		}
		de.Index = g
	}
	return err
}
