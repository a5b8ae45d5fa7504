package baselines

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bitstream"
	"repro/internal/encoder"
	"repro/internal/huffman"
	"repro/internal/predictor"
	"repro/internal/safedim"
	"repro/internal/telemetry"
)

// FPZIPLike is a predictive compressor with precision-bit truncation
// ("-P" in the paper's tables): each float32 keeps its top Precision bits
// in a monotonic integer mapping, which behaves like a pointwise relative
// error control, and Lorenzo prediction residuals are entropy-coded with a
// leading-bit-class scheme.
type FPZIPLike struct {
	// Precision is the number of most-significant bits kept (1..32).
	Precision int
	// Tel, when non-nil, receives a span per compress/decompress call.
	Tel *telemetry.Collector
}

const fpMagic = 0x5A46 // "FZ"

// monotonic maps float32 bits to an order-preserving uint32 (sign-magnitude
// to biased), so truncation and integer prediction behave sensibly.
func monotonic(f float32) uint32 {
	b := math.Float32bits(f)
	if b>>31 != 0 {
		return ^b
	}
	return b | 0x80000000
}

func unmonotonic(m uint32) float32 {
	var b uint32
	if m>>31 != 0 {
		b = m &^ 0x80000000
	} else {
		b = ^m
	}
	return math.Float32frombits(b)
}

// Compress compresses a field of dims [NX, NY] or [NX, NY, NZ], one
// component per dimension.
func (z FPZIPLike) Compress(dims []int, comps [][]float32) ([]byte, error) {
	return compressField(z.Tel, "fpzip", dims, comps, z.compress)
}

// CompressedSizeOne compresses a single component over the grid dims and
// returns the compressed size (per-component table columns).
func (z FPZIPLike) CompressedSizeOne(dims []int, comp []float32) (int, error) {
	return sizeOne(dims, comp, z.compress)
}

// Decompress reconstructs a field compressed by FPZIPLike and returns its
// dims and components.
func (z FPZIPLike) Decompress(blob []byte) ([]int, [][]float32, error) {
	defer decodeSpan(z.Tel, "fpzip", blob).End()
	return fpzipDecompress(blob)
}

func (z FPZIPLike) compress(g grid, comps [][]float32) ([]byte, error) {
	if z.Precision < 1 || z.Precision > 32 {
		return nil, fmt.Errorf("baselines: precision %d out of range", z.Precision)
	}
	shift := uint(32 - z.Precision)
	nx, ny, nz := g.nx, g.ny, g.nz
	n := safedim.MustProduct(nx, ny, nz)
	var classSyms []uint32
	var bits bitstream.Writer
	for _, c := range comps {
		rec := make([]int64, n) // truncated monotonic values, as int64
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					idx := (k*ny+j)*nx + i
					trunc := int64(monotonic(c[idx]) >> shift)
					pred := predictor.Lorenzo(rec, nx, ny, i, j, k, 0)
					resid := trunc - pred
					zz := zigzag64(resid)
					// Class = number of significant bits; the class is
					// Huffman-coded, the payload bits are raw.
					cls := uint(bitsLen(zz))
					classSyms = append(classSyms, uint32(cls))
					if cls > 1 {
						// The top bit of a cls-bit number is implicit.
						bits.WriteBits(zz&((1<<(cls-1))-1), cls-1)
					}
					rec[idx] = trunc
				}
			}
		}
	}
	head := szHeader(fpMagic, g)
	head = append(head, byte(z.Precision))
	return encoder.Pack(head, huffman.Compress(classSyms), bits.Bytes())
}

// zigzag64 maps a signed residual to an unsigned integer with small
// magnitudes first; residuals in the monotonic domain can exceed 32 bits,
// so the package-local 64-bit variant is used instead of huffman.Zigzag.
func zigzag64(v int64) uint64 {
	return uint64((v << 1) ^ (v >> 63))
}

func unzigzag64(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// bitsLen returns the bit length of v (0 for 0).
func bitsLen(v uint64) int {
	n := 0
	for v != 0 {
		n++
		v >>= 1
	}
	return n
}

func fpzipDecompress(blob []byte) ([]int, [][]float32, error) {
	sections, err := encoder.Unpack(blob)
	if err != nil {
		return nil, nil, err
	}
	if len(sections) != 3 {
		return nil, nil, errors.New("baselines: wrong section count")
	}
	g, head, err := szReadHeader(sections[0], fpMagic)
	if err != nil {
		return nil, nil, err
	}
	if len(head) < 1 {
		return nil, nil, errors.New("baselines: truncated header")
	}
	prec := int(head[0])
	shift := uint(32 - prec)
	classSyms, err := huffman.Decompress(sections[1])
	if err != nil {
		return nil, nil, err
	}
	bits := bitstream.NewReader(sections[2])
	n, err := g.vertexCount()
	if err != nil {
		return nil, nil, err
	}
	if len(classSyms) != n*g.ndim {
		return nil, nil, errors.New("baselines: stream length mismatch")
	}
	nx, ny, nz := g.nx, g.ny, g.nz
	comps := make([][]float32, g.ndim)
	pos := 0
	for c := range comps {
		rec := make([]int64, n)
		out := make([]float32, n)
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					idx := (k*ny+j)*nx + i
					cls := uint(classSyms[pos])
					pos++
					// Valid residual classes stay below ~37 bits; reject
					// corrupt symbols before they reach the bit reader's
					// width limit.
					if cls > 48 {
						return nil, nil, errors.New("baselines: corrupt residual class")
					}
					var zz uint64
					if cls == 1 {
						zz = 1
					} else if cls > 1 {
						low, err := bits.ReadBits(cls - 1)
						if err != nil {
							return nil, nil, err
						}
						zz = low | 1<<(cls-1)
					}
					resid := unzigzag64(zz)
					pred := predictor.Lorenzo(rec, nx, ny, i, j, k, 0)
					trunc := pred + resid
					rec[idx] = trunc
					out[idx] = unmonotonic(uint32(trunc) << shift)
				}
			}
		}
		comps[c] = out
	}
	return g.dims(), comps, nil
}
