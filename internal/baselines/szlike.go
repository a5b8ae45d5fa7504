// Package baselines provides simplified from-scratch reimplementations of
// the three generic error-bounded lossy compressors the paper compares
// against: SZ3 (prediction + absolute error bound), ZFP (block transform +
// bit-plane coding, precision and accuracy modes), and FPZIP (predictive
// coding with precision-bit truncation, i.e. pointwise-relative-like error
// control).
//
// All three are topology-agnostic: they control pointwise error but know
// nothing about critical points, so at compression ratios comparable to
// the proposed method they produce large numbers of false critical points
// — the behaviour Tables V–VII demonstrate.
package baselines

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/encoder"
	"repro/internal/huffman"
	"repro/internal/quantizer"
	"repro/internal/safedim"
	"repro/internal/telemetry"
)

// Codec is the dimension-free surface the three compressors share. A
// field has dims [NX, NY] or [NX, NY, NZ], fast axis first, and one
// component per dimension in that raster order.
type Codec interface {
	Compress(dims []int, comps [][]float32) ([]byte, error)
	Decompress(blob []byte) ([]int, [][]float32, error)
	CompressedSizeOne(dims []int, comp []float32) (int, error)
}

// SZLike is a prediction-based compressor with a global absolute error
// bound (the "-A" mode of SZ3 in the paper's tables).
type SZLike struct {
	// Abs is the absolute error bound.
	Abs float64
	// Tel, when non-nil, receives a span per compress/decompress call.
	Tel *telemetry.Collector
}

const szMagic = 0x5A53 // "SZ"

// Compress compresses a field of dims [NX, NY] or [NX, NY, NZ], one
// component per dimension.
func (s SZLike) Compress(dims []int, comps [][]float32) ([]byte, error) {
	return compressField(s.Tel, "sz", dims, comps, s.compress)
}

// CompressedSizeOne compresses a single component over the grid dims and
// returns the compressed size — the per-component ratio columns (CR_u,
// CR_v, CR_w) of the paper's tables.
func (s SZLike) CompressedSizeOne(dims []int, comp []float32) (int, error) {
	return sizeOne(dims, comp, s.compress)
}

// Decompress reconstructs a field compressed by SZLike and returns its
// dims and components.
func (s SZLike) Decompress(blob []byte) ([]int, [][]float32, error) {
	defer decodeSpan(s.Tel, "sz", blob).End()
	return szDecompress(blob)
}

func (s SZLike) compress(g grid, comps [][]float32) ([]byte, error) {
	abs := s.Abs
	if abs <= 0 {
		return nil, errors.New("baselines: Abs must be positive")
	}
	nx, ny, nz := g.nx, g.ny, g.nz
	n := safedim.MustProduct(nx, ny, nz)
	var codeSyms []uint32
	var literals []byte
	for _, c := range comps {
		rec := make([]float64, n)
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					idx := (k*ny+j)*nx + i
					pred := lorenzoF(rec, nx, ny, i, j, k)
					val := float64(c[idx])
					code := math.Round((val - pred) / (2 * abs))
					recon := pred + code*2*abs
					if math.Abs(code) >= quantizer.Radius || math.Abs(recon-val) > abs {
						codeSyms = append(codeSyms, escSym)
						var b [4]byte
						binary.LittleEndian.PutUint32(b[:], math.Float32bits(c[idx]))
						literals = append(literals, b[:]...)
						rec[idx] = val
					} else {
						codeSyms = append(codeSyms, huffman.Zigzag(int64(code)))
						rec[idx] = recon
					}
				}
			}
		}
	}
	head := szHeader(szMagic, g)
	head = binary.LittleEndian.AppendUint64(head, math.Float64bits(abs))
	return encoder.Pack(head, huffman.Compress(codeSyms), literals)
}

const escSym = uint32(2 * quantizer.Radius)

func szDecompress(blob []byte) ([]int, [][]float32, error) {
	sections, err := encoder.Unpack(blob)
	if err != nil {
		return nil, nil, err
	}
	if len(sections) != 3 {
		return nil, nil, errors.New("baselines: wrong section count")
	}
	g, head, err := szReadHeader(sections[0], szMagic)
	if err != nil {
		return nil, nil, err
	}
	if len(head) < 8 {
		return nil, nil, errors.New("baselines: truncated header")
	}
	abs := math.Float64frombits(binary.LittleEndian.Uint64(head))
	codeSyms, err := huffman.Decompress(sections[1])
	if err != nil {
		return nil, nil, err
	}
	literals := sections[2]
	n, err := g.vertexCount()
	if err != nil {
		return nil, nil, err
	}
	nx, ny, nz := g.nx, g.ny, g.nz
	if len(codeSyms) != n*g.ndim {
		return nil, nil, errors.New("baselines: stream length mismatch")
	}
	comps := make([][]float32, g.ndim)
	pos := 0
	for c := range comps {
		rec := make([]float64, n)
		out := make([]float32, n)
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					idx := (k*ny+j)*nx + i
					sym := codeSyms[pos]
					pos++
					if sym == escSym {
						if len(literals) < 4 {
							return nil, nil, errors.New("baselines: literal underrun")
						}
						v := math.Float32frombits(binary.LittleEndian.Uint32(literals))
						literals = literals[4:]
						rec[idx] = float64(v)
						out[idx] = v
						continue
					}
					pred := lorenzoF(rec, nx, ny, i, j, k)
					recon := pred + float64(huffman.Unzigzag(sym))*2*abs
					rec[idx] = recon
					out[idx] = float32(recon)
				}
			}
		}
		comps[c] = out
	}
	return g.dims(), comps, nil
}

// lorenzoF is the float Lorenzo predictor over a (possibly flat) volume.
func lorenzoF(rec []float64, nx, ny, i, j, k int) float64 {
	sx, sy, sz := 1, nx, nx*ny
	idx := (k*ny+j)*nx + i
	switch {
	case i > 0 && j > 0 && k > 0:
		return rec[idx-sx] + rec[idx-sy] + rec[idx-sz] -
			rec[idx-sx-sy] - rec[idx-sx-sz] - rec[idx-sy-sz] +
			rec[idx-sx-sy-sz]
	case i > 0 && j > 0:
		return rec[idx-sx] + rec[idx-sy] - rec[idx-sx-sy]
	case i > 0 && k > 0:
		return rec[idx-sx] + rec[idx-sz] - rec[idx-sx-sz]
	case j > 0 && k > 0:
		return rec[idx-sy] + rec[idx-sz] - rec[idx-sy-sz]
	case i > 0:
		return rec[idx-sx]
	case j > 0:
		return rec[idx-sy]
	case k > 0:
		return rec[idx-sz]
	default:
		return 0
	}
}

// grid is a baseline stream's shape, flattened so that a 2D field has
// nz = 1.
type grid struct{ ndim, nx, ny, nz int }

// gridOf validates a field handed to a baseline: dims [NX, NY] or
// [NX, NY, NZ] and ncomp components of the matching length.
func gridOf(dims []int, comps [][]float32, ncomp int) (grid, error) {
	if _, err := safedim.Field(dims, comps, ncomp); err != nil {
		return grid{}, fmt.Errorf("baselines: %w", err)
	}
	g := grid{ndim: len(dims), nx: dims[0], ny: dims[1], nz: 1}
	if g.ndim == 3 {
		g.nz = dims[2]
	}
	return g, nil
}

func (g grid) dims() []int { return []int{g.nx, g.ny, g.nz}[:g.ndim] }

// vertexCount returns nx·ny·nz with overflow protection: the
// per-dimension bounds of szReadHeader still allow a product past
// int64, which must not wrap into a small length that stream checks
// would then trust.
func (g grid) vertexCount() (int, error) {
	p := uint64(g.nx) * uint64(g.ny) // each <= 2^28, no overflow
	if p > 1<<40 || p > (1<<40)/uint64(g.nz) {
		return 0, errors.New("baselines: field too large")
	}
	return int(p * uint64(g.nz)), nil
}

// compressField is the Compress of every baseline: it checks the shape
// (one component per dimension) and runs compress under the
// baselines.<codec>.compress<n>d span.
func compressField(tel *telemetry.Collector, codec string, dims []int, comps [][]float32,
	compress func(grid, [][]float32) ([]byte, error)) ([]byte, error) {
	defer span(tel, codec, "compress", len(dims)).End()
	g, err := gridOf(dims, comps, len(dims))
	if err != nil {
		return nil, err
	}
	return compress(g, comps)
}

// sizeOne is the CompressedSizeOne of every baseline.
func sizeOne(dims []int, comp []float32, compress func(grid, [][]float32) ([]byte, error)) (int, error) {
	comps := [][]float32{comp}
	g, err := gridOf(dims, comps, 1)
	if err != nil {
		return 0, err
	}
	blob, err := compress(g, comps)
	return len(blob), err
}

// span opens the baselines.<codec>.<op><n>d span of one call on an
// ndim-dimensional field; without a collector it is a no-op.
func span(tel *telemetry.Collector, codec, op string, ndim int) *telemetry.Span {
	if tel == nil {
		return nil
	}
	return tel.Span("baselines." + codec + "." + op + strconv.Itoa(ndim) + "d")
}

// decodeSpan opens the decompress span of blob, named after the
// dimensionality its header declares (peeked without decoding the
// payload).
func decodeSpan(tel *telemetry.Collector, codec string, blob []byte) *telemetry.Span {
	if tel == nil {
		return nil
	}
	head, err := encoder.UnpackFirst(blob)
	if err != nil || len(head) < 3 {
		return tel.Span("baselines." + codec + ".decompress")
	}
	return span(tel, codec, "decompress", int(head[2]))
}

func szHeader(magic uint16, g grid) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint16(b, magic)
	b = append(b, byte(g.ndim))
	b = binary.AppendUvarint(b, uint64(g.nx))
	b = binary.AppendUvarint(b, uint64(g.ny))
	b = binary.AppendUvarint(b, uint64(g.nz))
	return b
}

func szReadHeader(b []byte, magic uint16) (g grid, rest []byte, err error) {
	if len(b) < 3 || binary.LittleEndian.Uint16(b) != magic {
		return grid{}, nil, errors.New("baselines: bad magic")
	}
	g.ndim = int(b[2])
	if g.ndim != 2 && g.ndim != 3 {
		return grid{}, nil, errors.New("baselines: bad dimensionality")
	}
	b = b[3:]
	bad := false
	read := func() int {
		v, k := binary.Uvarint(b)
		if k <= 0 || v < 1 || v > 1<<28 {
			bad = true
			return 1
		}
		b = b[k:]
		return int(v)
	}
	g.nx, g.ny, g.nz = read(), read(), read()
	if bad {
		return grid{}, nil, errors.New("baselines: bad dims")
	}
	// A 2D stream is one plane: a 2D header with nz > 1 would decode
	// only the first of its planes.
	if g.ndim == 2 && g.nz != 1 {
		return grid{}, nil, fmt.Errorf("baselines: corrupt 2D header with nz = %d", g.nz)
	}
	return g, b, nil
}
