// Package isosurface extends the sign-of-determinant preservation theory
// to scalar fields: error-bounded lossy compression that preserves the
// topology of one or more isosurfaces.
//
// This is the extension the paper's Lemma 2 provides the bound for (and
// its conclusion announces as future work — "preserve more features
// expressed by the sign of determinants"): the side of an isovalue f on
// which a scalar sample lies is the sign of det [[f₀,1],[f,1]] = f₀ − f.
// If every vertex keeps its side for every isovalue, every cell keeps its
// marching-squares/cubes sign pattern, so the extracted isosurface keeps
// its per-cell topology exactly.
//
// The compressor reuses the pipeline of package core: per-vertex bounds
// min(τ′, minᶠ |v−f|−1), Lorenzo prediction, linear-scaling quantization
// with power-of-two bound snapping, Huffman + DEFLATE.
package isosurface

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/encoder"
	"repro/internal/fixed"
	"repro/internal/huffman"
	"repro/internal/predictor"
	"repro/internal/quantizer"
	"repro/internal/safedim"
)

// Options configures isosurface-preserving compression.
type Options struct {
	// Tau is the user-specified absolute error bound.
	Tau float64
	// Isovalues are the levels whose surfaces must be preserved.
	Isovalues []float64
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.Tau <= 0 {
		return errors.New("isosurface: Tau must be positive")
	}
	if len(o.Isovalues) == 0 {
		return errors.New("isosurface: at least one isovalue required")
	}
	return nil
}

const isoMagic = 0x4F53 // "SO"

// Field is a scalar field on a structured grid; NZ == 1 means 2D.
type Field struct {
	NX, NY, NZ int
	Data       []float32
}

// NewField allocates a zero scalar field.
func NewField(nx, ny, nz int) *Field {
	if nz < 1 {
		nz = 1
	}
	return &Field{NX: nx, NY: ny, NZ: nz, Data: make([]float32, safedim.MustProduct(nx, ny, nz))}
}

// SideOf returns -1/0/+1 for a sample relative to an isovalue in the
// fixed-point domain (the preserved predicate).
func SideOf(v, iso int64) int {
	switch {
	case v < iso:
		return -1
	case v > iso:
		return 1
	default:
		return 0
	}
}

// Compress compresses the scalar field preserving the side of every
// sample with respect to every isovalue.
func Compress(f *Field, opts Options) ([]byte, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n := safedim.MustProduct(f.NX, f.NY, f.NZ)
	if len(f.Data) != n {
		return nil, errors.New("isosurface: data length mismatch")
	}
	tr, err := fixed.Fit(f.Data)
	if err != nil {
		return nil, err
	}
	tau := tr.Bound(opts.Tau)
	// Fixed-point isovalues (rounded to nearest), sorted for the
	// nearest-level search. With round-to-nearest, preserving the strict
	// side of the fixed-point level also preserves the strict side of
	// the float-valued level: any sample whose fixed distance is ≥ 1 has
	// float distance ≥ 0.5 units, and ties are stored losslessly.
	isos := make([]int64, len(opts.Isovalues))
	for i, iso := range opts.Isovalues {
		isos[i] = int64(math.RoundToEven(iso * tr.Scale))
	}
	sort.Slice(isos, func(i, j int) bool { return isos[i] < isos[j] })

	data := make([]int64, n)
	tr.ToFixed(f.Data, data)

	var expSyms, codeSyms []uint32
	var literals []byte
	for k := 0; k < f.NZ; k++ {
		for j := 0; j < f.NY; j++ {
			for i := 0; i < f.NX; i++ {
				idx := (k*f.NY+j)*f.NX + i
				v := data[idx]
				xi := tau
				if d := nearestDistance(v, isos) - 1; d < xi {
					xi = d
				}
				if xi < 0 {
					xi = 0
				}
				sym, snapped := quantizer.BoundSym(xi, tau)
				pred := predictor.Lorenzo(data, f.NX, f.NY, i, j, k, 0)
				code, recon, ok := quantizer.Quantize(v, pred, snapped)
				expSyms = append(expSyms, uint32(sym))
				if !ok {
					codeSyms = append(codeSyms, uint32(2*quantizer.Radius))
					var b [4]byte
					binary.LittleEndian.PutUint32(b[:], uint32(int32(v)))
					literals = append(literals, b[:]...)
					recon = v
				} else {
					codeSyms = append(codeSyms, huffman.Zigzag(code))
				}
				data[idx] = recon
			}
		}
	}

	var head []byte
	head = binary.LittleEndian.AppendUint16(head, isoMagic)
	head = binary.AppendUvarint(head, uint64(f.NX))
	head = binary.AppendUvarint(head, uint64(f.NY))
	head = binary.AppendUvarint(head, uint64(f.NZ))
	head = binary.AppendVarint(head, int64(tr.Shift))
	head = binary.AppendVarint(head, tau)
	return encoder.Pack(head, huffman.Compress(expSyms), huffman.Compress(codeSyms), literals)
}

// nearestDistance returns the distance from v to the closest isovalue
// (isos sorted ascending).
func nearestDistance(v int64, isos []int64) int64 {
	i := sort.Search(len(isos), func(i int) bool { return isos[i] >= v })
	best := int64(1) << 62
	if i < len(isos) {
		if d := isos[i] - v; d < best {
			best = d
		}
	}
	if i > 0 {
		if d := v - isos[i-1]; d < best {
			best = d
		}
	}
	return best
}

// Decompress reconstructs a field compressed by Compress.
func Decompress(blob []byte) (*Field, error) {
	sections, err := encoder.Unpack(blob)
	if err != nil {
		return nil, err
	}
	if len(sections) != 4 {
		return nil, errors.New("isosurface: wrong section count")
	}
	head := sections[0]
	if len(head) < 2 || binary.LittleEndian.Uint16(head) != isoMagic {
		return nil, errors.New("isosurface: bad magic")
	}
	head = head[2:]
	// Bounds-checked varint reads: truncated buffers (k <= 0) and
	// oversized dimensions must error out before slicing or before the
	// vertex-count product can overflow.
	errHead := errors.New("isosurface: truncated or oversized header")
	var perr error
	readU := func() int {
		v, k := binary.Uvarint(head)
		if k <= 0 || v < 1 || v > 1<<28 {
			perr = errHead
			return 1
		}
		head = head[k:]
		return int(v)
	}
	nx, ny, nz := readU(), readU(), readU()
	if perr != nil {
		return nil, perr
	}
	sv, k := binary.Varint(head)
	if k <= 0 {
		return nil, errHead
	}
	head = head[k:]
	shift := int(sv)
	tau, k := binary.Varint(head)
	if k <= 0 {
		return nil, errHead
	}
	if p := uint64(nx) * uint64(ny); p > 1<<40 || p > (1<<40)/uint64(nz) {
		return nil, errors.New("isosurface: field too large")
	}
	expSyms, err := huffman.Decompress(sections[1])
	if err != nil {
		return nil, err
	}
	codeSyms, err := huffman.Decompress(sections[2])
	if err != nil {
		return nil, err
	}
	literals := sections[3]
	// Cannot overflow: the header check above bounds nx*ny*nz by 2^40.
	n := safedim.MustProduct(nx, ny, nz)
	if len(expSyms) != n || len(codeSyms) != n {
		return nil, errors.New("isosurface: stream length mismatch")
	}
	data := make([]int64, n)
	p := 0
	for kz := 0; kz < nz; kz++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				idx := (kz*ny+j)*nx + i
				sym := codeSyms[p]
				if sym == uint32(2*quantizer.Radius) {
					if len(literals) < 4 {
						return nil, errors.New("isosurface: literal underrun")
					}
					data[idx] = int64(int32(binary.LittleEndian.Uint32(literals)))
					literals = literals[4:]
				} else {
					bound := quantizer.BoundFromSym(uint8(expSyms[p]), tau)
					pred := predictor.Lorenzo(data, nx, ny, i, j, kz, 0)
					data[idx] = quantizer.Reconstruct(huffman.Unzigzag(sym), pred, bound)
				}
				p++
			}
		}
	}
	out := NewField(nx, ny, nz)
	tr := fixed.FromShift(shift)
	tr.ToFloat(data, out.Data)
	return out, nil
}

// CellCases returns the marching-squares/cubes sign pattern of every cell
// for an isovalue: a bitmask over cell corners (1 = corner strictly above
// the level). Comparing patterns between original and decompressed data
// verifies isosurface topology preservation cell by cell.
func CellCases(f *Field, iso float64) []uint8 {
	above := func(v float32) bool { return float64(v) > iso }
	if f.NZ == 1 {
		out := make([]uint8, safedim.MustProduct(f.NX-1, f.NY-1))
		for j := 0; j < f.NY-1; j++ {
			for i := 0; i < f.NX-1; i++ {
				var m uint8
				for b, off := range [4][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
					if above(f.Data[(j+off[1])*f.NX+i+off[0]]) {
						m |= 1 << b
					}
				}
				out[j*(f.NX-1)+i] = m
			}
		}
		return out
	}
	out := make([]uint8, safedim.MustProduct(f.NX-1, f.NY-1, f.NZ-1))
	c := 0
	for k := 0; k < f.NZ-1; k++ {
		for j := 0; j < f.NY-1; j++ {
			for i := 0; i < f.NX-1; i++ {
				var m uint8
				b := 0
				for dz := 0; dz < 2; dz++ {
					for dy := 0; dy < 2; dy++ {
						for dx := 0; dx < 2; dx++ {
							if above(f.Data[((k+dz)*f.NY+j+dy)*f.NX+i+dx]) {
								m |= 1 << b
							}
							b++
						}
					}
				}
				out[c] = m
				c++
			}
		}
	}
	return out
}

// String implements fmt.Stringer for diagnostics.
func (f *Field) String() string {
	return fmt.Sprintf("scalar field %dx%dx%d", f.NX, f.NY, f.NZ)
}
