// Slab sources and sinks: the windowed plane-granular access layer of
// the out-of-core pipeline. A SlabSource hands out runs of slow-axis
// planes (Y rows in 2D, Z slices in 3D) so the shared-memory pipeline
// can hold only the active slab plus its ghost planes; a RawSink writes
// decoded planes back into the component-major raw layout without ever
// materializing a full field.

package field

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/fixed"
	"repro/internal/safedim"
)

// SlabSource provides random access to runs of slow-axis planes of a
// vector field. A plane is one j-row span of NX points (2D) or one
// k-slice of NX×NY points (3D); components are ordered (u, v[, w]).
//
// Implementations must be safe for concurrent ReadPlanes calls: the
// slab pipeline's workers each read their own slab, and a degraded slab
// is read again for its lossless fallback because the failed encode may
// have mutated the first copy.
type SlabSource interface {
	// Dims returns the grid dimensions, [NX, NY] or [NX, NY, NZ]. The
	// last entry is the slow axis; len(Dims()) is also the component
	// count.
	Dims() []int
	// ReadPlanes fills comps[c][:count*planeSize] with planes
	// [start, start+count) of component c. len(comps) must equal the
	// component count and every comps[c] must hold count*planeSize
	// elements, where planeSize is the product of all non-slow dims.
	ReadPlanes(start, count int, comps [][]float32) error
}

// ErrPlaneRange reports a ReadPlanes/WritePlanes span outside the grid.
var ErrPlaneRange = errors.New("field: plane span out of range")

// planeSize returns the number of points per slow-axis plane.
func planeSize(dims []int) int {
	n := 1
	for _, d := range dims[:len(dims)-1] {
		n *= d
	}
	return n
}

func checkSpan(dims []int, start, count int, comps [][]float32) (int, error) {
	nSlow := dims[len(dims)-1]
	if start < 0 || count < 0 || start+count > nSlow {
		return 0, fmt.Errorf("%w: planes [%d,%d) of %d", ErrPlaneRange, start, start+count, nSlow)
	}
	if len(comps) != len(dims) {
		return 0, fmt.Errorf("field: %d component buffers for %d components", len(comps), len(dims))
	}
	ps := planeSize(dims)
	for c, buf := range comps {
		if len(buf) < count*ps {
			return 0, fmt.Errorf("field: component %d buffer holds %d of %d points", c, len(buf), count*ps)
		}
	}
	return ps, nil
}

// Mem adapts an in-memory field to both sides of the plane-granular
// layer: it is a SlabSource for the compressor and a plane sink for the
// streaming decoder, which writes disjoint spans concurrently.
type Mem struct {
	dims  []int
	comps [][]float32
}

// MemOf wraps the components of an in-memory field of dims [NX, NY] or
// [NX, NY, NZ], one per dimension, without copying them. Reads copy out
// of the field, so encode attempts can scribble on their buffers without
// corrupting the source; writes copy into it.
func MemOf(dims []int, comps [][]float32) *Mem {
	return &Mem{dims: dims, comps: comps}
}

// Mem2D wraps an in-memory 2D field.
//
// Deprecated: use MemOf(f.Dims(), f.Components()).
func Mem2D(f *Field2D) *Mem { return MemOf(f.Dims(), f.Components()) }

// Mem3D wraps an in-memory 3D field.
//
// Deprecated: use MemOf(f.Dims(), f.Components()).
func Mem3D(f *Field3D) *Mem { return MemOf(f.Dims(), f.Components()) }

// NewMem allocates a zeroed in-memory field of dims [NX, NY] or
// [NX, NY, NZ] with one component per dimension, e.g. as the sink of a
// decode whose dims are known only once the container has been read.
func NewMem(dims []int) *Mem {
	comps := make([][]float32, len(dims))
	for c := range comps {
		comps[c] = make([]float32, safedim.MustProduct(dims...))
	}
	return &Mem{dims: dims, comps: comps}
}

func (s *Mem) Dims() []int { return s.dims }

func (s *Mem) ReadPlanes(start, count int, comps [][]float32) error {
	ps, err := checkSpan(s.dims, start, count, comps)
	if err != nil {
		return err
	}
	for c := range comps {
		copy(comps[c][:count*ps], s.comps[c][start*ps:])
	}
	return nil
}

// WritePlanes stores planes [start, start+len/planeSize) of every
// component, like RawSink.WritePlanes. Safe for concurrent use on
// disjoint spans.
func (s *Mem) WritePlanes(start int, comps [][]float32) error {
	if len(comps) != len(s.dims) {
		return fmt.Errorf("field: %d component buffers for %d components", len(comps), len(s.dims))
	}
	count := len(comps[0]) / planeSize(s.dims)
	ps, err := checkSpan(s.dims, start, count, comps)
	if err != nil {
		return err
	}
	for c := range comps {
		copy(s.comps[c][start*ps:], comps[c][:count*ps])
	}
	return nil
}

// RawSource reads a component-major little-endian float32 raw file (the
// WriteRaw layout: all of u, then all of v[, then w]) through an
// io.ReaderAt, holding only the planes of the current read in memory.
type RawSource struct {
	r    io.ReaderAt
	dims []int
	ps   int   // points per plane
	n    int64 // points per component
	// scratch recycles the per-read byte buffer across calls; each
	// concurrent reader gets its own.
	scratch sync.Pool
}

// NewRawSource indexes a raw file of the given dimensions ([NX, NY] or
// [NX, NY, NZ]). The dimension product is overflow-checked; the reader
// must hold len(dims) × product × 4 bytes.
func NewRawSource(r io.ReaderAt, dims ...int) (*RawSource, error) {
	if len(dims) != 2 && len(dims) != 3 {
		return nil, fmt.Errorf("field: raw source needs 2 or 3 dims, got %d", len(dims))
	}
	n, ok := safedim.Product(dims...)
	if !ok {
		return nil, fmt.Errorf("field: raw source dims %v overflow", dims)
	}
	d := append([]int(nil), dims...)
	return &RawSource{r: r, dims: d, ps: planeSize(d), n: int64(n)}, nil
}

func (s *RawSource) Dims() []int { return s.dims }

func (s *RawSource) ReadPlanes(start, count int, comps [][]float32) error {
	ps, err := checkSpan(s.dims, start, count, comps)
	if err != nil {
		return err
	}
	need := safedim.MustProduct(count, ps, 4)
	buf, _ := s.scratch.Get().(*[]byte)
	if buf == nil || len(*buf) < need {
		// One read's worth of raw bytes: O(slab), recycled via the pool.
		b := make([]byte, need)
		buf = &b
	}
	defer s.scratch.Put(buf)
	for c := range comps {
		off := (int64(c)*s.n + int64(start)*int64(ps)) * 4
		if _, err := s.r.ReadAt((*buf)[:need], off); err != nil {
			return fmt.Errorf("field: read raw planes [%d,%d) comp %d: %w", start, start+count, c, err)
		}
		dst := comps[c][:count*ps]
		for i := range dst {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32((*buf)[i*4:]))
		}
	}
	return nil
}

// RawSink writes slow-axis planes into the component-major raw layout
// through an io.WriterAt, so decoded slabs can land directly in their
// final file position in any order. The mirror image of RawSource.
type RawSink struct {
	w    io.WriterAt
	dims []int
	ps   int
	n    int64
	// scratch recycles the per-write byte buffer across calls.
	scratch sync.Pool
}

// NewRawSink prepares a component-major raw writer for the given
// dimensions.
func NewRawSink(w io.WriterAt, dims ...int) (*RawSink, error) {
	if len(dims) != 2 && len(dims) != 3 {
		return nil, fmt.Errorf("field: raw sink needs 2 or 3 dims, got %d", len(dims))
	}
	n, ok := safedim.Product(dims...)
	if !ok {
		return nil, fmt.Errorf("field: raw sink dims %v overflow", dims)
	}
	d := append([]int(nil), dims...)
	return &RawSink{w: w, dims: d, ps: planeSize(d), n: int64(n)}, nil
}

// Dims returns the grid dimensions the sink was built for.
func (s *RawSink) Dims() []int { return s.dims }

// WritePlanes stores planes [start, start+len/planeSize) of every
// component; each comps[c] must hold the same whole number of planes.
// Safe for concurrent use on disjoint spans.
func (s *RawSink) WritePlanes(start int, comps [][]float32) error {
	if len(comps) != len(s.dims) {
		return fmt.Errorf("field: %d component buffers for %d components", len(comps), len(s.dims))
	}
	count := len(comps[0]) / s.ps
	ps, err := checkSpan(s.dims, start, count, comps)
	if err != nil {
		return err
	}
	need := safedim.MustProduct(count, ps, 4)
	buf, _ := s.scratch.Get().(*[]byte)
	if buf == nil || len(*buf) < need {
		b := make([]byte, need)
		buf = &b
	}
	defer s.scratch.Put(buf)
	for c := range comps {
		src := comps[c][:count*ps]
		for i, v := range src {
			binary.LittleEndian.PutUint32((*buf)[i*4:], math.Float32bits(v))
		}
		off := (int64(c)*s.n + int64(start)*int64(ps)) * 4
		if _, err := s.w.WriteAt((*buf)[:need], off); err != nil {
			return fmt.Errorf("field: write raw planes [%d,%d) comp %d: %w", start, start+count, c, err)
		}
	}
	return nil
}

// Stats summarizes a source's value distribution — everything the
// compressor needs (fixed-point fit, relative error bound) without a
// second pass or an in-memory field.
type Stats struct {
	Min, Max float32
	// MaxAbs is accumulated exactly as fixed.Fit does (float64 of each
	// float32 sample), so fixed.FromMaxAbs(MaxAbs) equals the transform
	// an in-memory fixed.Fit would produce.
	MaxAbs float64
	N      int
}

// Range returns max-min as a float64, clamped to 1 for constant fields:
// the value range every entry point scales a relative error bound by.
func (st Stats) Range() float64 {
	if st.Max <= st.Min {
		return 1
	}
	return float64(st.Max) - float64(st.Min)
}

// Range returns the value range of in-memory components as Stats.Range
// defines it, for callers that already hold the whole field.
func Range(comps ...[]float32) float64 {
	st := Stats{Min: float32(math.Inf(1)), Max: float32(math.Inf(-1))}
	for _, c := range comps {
		for _, v := range c {
			if v < st.Min {
				st.Min = v
			}
			if v > st.Max {
				st.Max = v
			}
		}
	}
	return st.Range()
}

// SourceStats scans src in runs of at most window planes (window <= 0
// picks a small default) and accumulates value statistics with O(window)
// peak memory. The result is independent of window because min/max/abs
// folds are order-insensitive. A NaN or infinite value is rejected with a
// *fixed.DomainError, exactly as fixed.Fit rejects it.
func SourceStats(src SlabSource, window int) (Stats, error) {
	dims := src.Dims()
	nSlow := dims[len(dims)-1]
	ps := planeSize(dims)
	if window <= 0 {
		window = 64
	}
	if window > nSlow {
		window = nSlow
	}
	comps := make([][]float32, len(dims))
	for c := range comps {
		comps[c] = make([]float32, safedim.MustProduct(window, ps))
	}
	var st Stats
	first := true
	for start := 0; start < nSlow; start += window {
		count := window
		if start+count > nSlow {
			count = nSlow - start
		}
		if err := src.ReadPlanes(start, count, comps); err != nil {
			return Stats{}, err
		}
		for ci, c := range comps {
			for i, v := range c[:count*ps] {
				if first {
					st.Min, st.Max, first = v, v, false
				}
				if v < st.Min {
					st.Min = v
				}
				if v > st.Max {
					st.Max = v
				}
				a := math.Abs(float64(v))
				if !(a <= math.MaxFloat32) {
					return Stats{}, &fixed.DomainError{Component: ci, Index: start*ps + i, Value: float64(v)}
				}
				if a > st.MaxAbs {
					st.MaxAbs = a
				}
				st.N++
			}
		}
	}
	if st.N == 0 {
		return Stats{}, fmt.Errorf("field: source stats over empty field")
	}
	return st, nil
}
