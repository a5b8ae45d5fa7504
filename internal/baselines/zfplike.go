package baselines

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/bitstream"
	"repro/internal/encoder"
	"repro/internal/telemetry"
)

// ZFPLike is a transform-based compressor working on 4^d blocks: block
// floating point (one shared exponent per block), an invertible integer
// wavelet lift along each axis, and embedded bit-plane coding from the
// most significant plane down.
//
// Two modes mirror the paper's tables: fixed precision ("-P", keep
// Precision planes of every block) and fixed accuracy ("-A", keep planes
// down to the absolute tolerance).
type ZFPLike struct {
	// Precision is the number of bit planes kept per block (1..30).
	// Ignored when Accuracy > 0.
	Precision int
	// Accuracy, when positive, selects fixed-accuracy mode with the given
	// absolute error tolerance.
	Accuracy float64
	// Tel, when non-nil, receives a span per compress/decompress call.
	Tel *telemetry.Collector
}

const (
	zfpMagic = 0x465A // "ZF"
	// blockQ is the fixed-point precision inside a block: values are
	// scaled to ~30 significant bits below the block exponent.
	blockQ = 30
	// liftHeadroom is the bit growth allowance of the wavelet lift (the
	// difference coefficients grow by up to one bit per lifted axis).
	liftHeadroom = 4
)

// Compress compresses a field of dims [NX, NY] or [NX, NY, NZ], one
// component per dimension.
func (z ZFPLike) Compress(dims []int, comps [][]float32) ([]byte, error) {
	return compressField(z.Tel, "zfp", dims, comps, z.compress)
}

// CompressedSizeOne compresses a single component over the grid dims and
// returns the compressed size (per-component table columns).
func (z ZFPLike) CompressedSizeOne(dims []int, comp []float32) (int, error) {
	return sizeOne(dims, comp, z.compress)
}

// Decompress reconstructs a field compressed by ZFPLike and returns its
// dims and components.
func (z ZFPLike) Decompress(blob []byte) ([]int, [][]float32, error) {
	defer decodeSpan(z.Tel, "zfp", blob).End()
	return z.decompress(blob)
}

func (z ZFPLike) compress(g grid, comps [][]float32) ([]byte, error) {
	ndim, nx, ny, nz := g.ndim, g.nx, g.ny, g.nz
	if z.Accuracy <= 0 && (z.Precision < 1 || z.Precision > blockQ) {
		return nil, fmt.Errorf("baselines: zfp precision %d out of range", z.Precision)
	}
	const bs = 4 // block side
	bx, by, bz := ceilDiv(nx, bs), ceilDiv(ny, bs), 1
	if ndim == 3 {
		bz = ceilDiv(nz, bs)
	}
	blockLen := bs * bs
	if ndim == 3 {
		blockLen = bs * bs * bs
	}
	var bits bitstream.Writer
	block := make([]int64, blockLen)
	vals := make([]float64, blockLen)
	for _, c := range comps {
		for kb := 0; kb < bz; kb++ {
			for jb := 0; jb < by; jb++ {
				for ib := 0; ib < bx; ib++ {
					gatherBlock(c, vals, nx, ny, nz, ib*bs, jb*bs, kb*bs, bs, ndim)
					e := blockExponent(vals)
					// 7-bit biased exponent (−63..64).
					bits.WriteBits(uint64(e+63), 7)
					scale := math.Ldexp(1, blockQ-e)
					for i, v := range vals {
						block[i] = int64(math.Round(v * scale))
					}
					forwardLift(block, bs, ndim)
					planes := z.planeCount(e)
					encodeBlock(&bits, block, planes)
				}
			}
		}
	}
	head := szHeader(zfpMagic, g)
	head = append(head, byte(z.Precision))
	head = binary.LittleEndian.AppendUint64(head, math.Float64bits(z.Accuracy))
	return encoder.Pack(head, bits.Bytes())
}

// planeCount returns how many bit planes to keep for a block with
// exponent e.
func (z ZFPLike) planeCount(e int) int {
	if z.Accuracy <= 0 {
		return z.Precision
	}
	// Keep planes down to the tolerance: plane p carries value magnitude
	// 2^(e + liftHeadroom - 1 - p); keep planes while that stays at or
	// above the tolerance exponent.
	tolExp := int(math.Floor(math.Log2(z.Accuracy)))
	planes := e + liftHeadroom - 1 - tolExp
	if planes < 0 {
		planes = 0
	}
	if planes > blockQ {
		planes = blockQ
	}
	return planes
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// gatherBlock copies (with edge clamping) a 4^d block into vals.
func gatherBlock(c []float32, vals []float64, nx, ny, nz, x0, y0, z0, bs, ndim int) {
	zs := bs
	if ndim == 2 {
		zs = 1
	}
	p := 0
	for dz := 0; dz < zs; dz++ {
		k := min(z0+dz, max(nz-1, 0))
		for dy := 0; dy < bs; dy++ {
			j := min(y0+dy, ny-1)
			for dx := 0; dx < bs; dx++ {
				i := min(x0+dx, nx-1)
				vals[p] = float64(c[(k*ny+j)*nx+i])
				p++
			}
		}
	}
}

func scatterBlock(c []float32, vals []float64, nx, ny, nz, x0, y0, z0, bs, ndim int) {
	zs := bs
	if ndim == 2 {
		zs = 1
	}
	p := 0
	for dz := 0; dz < zs; dz++ {
		k := z0 + dz
		for dy := 0; dy < bs; dy++ {
			j := y0 + dy
			for dx := 0; dx < bs; dx++ {
				i := x0 + dx
				if i < nx && j < ny && (ndim == 2 || k < nz) {
					kk := k
					if ndim == 2 {
						kk = 0
					}
					c[(kk*ny+j)*nx+i] = float32(vals[p])
				}
				p++
			}
		}
	}
}

func blockExponent(vals []float64) int {
	m := 0.0
	for _, v := range vals {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	if m == 0 {
		return -63
	}
	e := int(math.Ceil(math.Log2(m)))
	if e < -63 {
		e = -63
	}
	if e > 64 {
		e = 64
	}
	return e
}

// sLift is the forward S-transform on a pair: s = ⌊(a+b)/2⌋, d = a−b.
func sLift(a, b int64) (s, d int64) {
	d = a - b
	s = b + (d >> 1)
	return s, d
}

func sUnlift(s, d int64) (a, b int64) {
	b = s - (d >> 1)
	a = b + d
	return a, b
}

// forwardLift applies a two-level Haar-style lift along each axis of the
// 4^d block (the decorrelating transform).
func forwardLift(block []int64, bs, ndim int) {
	dims := ndim
	strides := [3]int{1, bs, bs * bs}
	counts := [3]int{bs, bs, bs}
	total := len(block)
	for d := 0; d < dims; d++ {
		st := strides[d]
		n := counts[d]
		// Iterate over all lines along axis d.
		for base := 0; base < total; base++ {
			if (base/st)%n != 0 {
				continue
			}
			// Line starts at base with stride st.
			lift4(block, base, st)
		}
	}
}

func inverseLift(block []int64, bs, ndim int) {
	dims := ndim
	strides := [3]int{1, bs, bs * bs}
	counts := [3]int{bs, bs, bs}
	total := len(block)
	for d := dims - 1; d >= 0; d-- {
		st := strides[d]
		n := counts[d]
		for base := 0; base < total; base++ {
			if (base/st)%n != 0 {
				continue
			}
			unlift4(block, base, st)
		}
	}
}

// lift4 transforms the 4 elements (base, base+st, base+2st, base+3st):
// level 1 pairs (0,1) and (2,3), level 2 on the two averages. Layout
// afterwards: [ss, ds, d0, d1].
func lift4(b []int64, base, st int) {
	a0, a1, a2, a3 := b[base], b[base+st], b[base+2*st], b[base+3*st]
	s0, d0 := sLift(a0, a1)
	s1, d1 := sLift(a2, a3)
	ss, ds := sLift(s0, s1)
	b[base], b[base+st], b[base+2*st], b[base+3*st] = ss, ds, d0, d1
}

func unlift4(b []int64, base, st int) {
	ss, ds, d0, d1 := b[base], b[base+st], b[base+2*st], b[base+3*st]
	s0, s1 := sUnlift(ss, ds)
	a0, a1 := sUnlift(s0, d0)
	a2, a3 := sUnlift(s1, d1)
	b[base], b[base+st], b[base+2*st], b[base+3*st] = a0, a1, a2, a3
}

// encodeBlock writes `planes` bit planes of the block with embedded
// significance coding: per plane, one magnitude bit per coefficient, plus
// the sign bit the first time a coefficient becomes significant.
func encodeBlock(w *bitstream.Writer, block []int64, planes int) {
	n := len(block)
	signif := make([]bool, n)
	for p := 0; p < planes; p++ {
		bit := uint(blockQ + liftHeadroom - 1 - p)
		for i := 0; i < n; i++ {
			v := block[i]
			mag := uint64(v)
			if v < 0 {
				mag = uint64(-v)
			}
			b := (mag >> bit) & 1
			w.WriteBits(b, 1)
			if b == 1 && !signif[i] {
				signif[i] = true
				if v < 0 {
					w.WriteBits(1, 1)
				} else {
					w.WriteBits(0, 1)
				}
			}
		}
	}
}

func decodeBlock(r *bitstream.Reader, block []int64, planes int) error {
	n := len(block)
	mags := make([]uint64, n)
	neg := make([]bool, n)
	signif := make([]bool, n)
	for p := 0; p < planes; p++ {
		bit := uint(blockQ + liftHeadroom - 1 - p)
		for i := 0; i < n; i++ {
			b, err := r.ReadBits(1)
			if err != nil {
				return err
			}
			if b == 1 {
				mags[i] |= 1 << bit
				if !signif[i] {
					signif[i] = true
					s, err := r.ReadBits(1)
					if err != nil {
						return err
					}
					neg[i] = s == 1
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		v := int64(mags[i])
		if planes > 0 && planes < blockQ+liftHeadroom {
			// Reconstruct to the middle of the uncertainty interval.
			v |= 1 << uint(blockQ+liftHeadroom-1-planes)
			if mags[i] == 0 && !signif[i] {
				v = 0
			}
		}
		if neg[i] {
			v = -v
		}
		block[i] = v
	}
	return nil
}

func (z ZFPLike) decompress(blob []byte) ([]int, [][]float32, error) {
	sections, err := encoder.Unpack(blob)
	if err != nil {
		return nil, nil, err
	}
	if len(sections) != 2 {
		return nil, nil, errors.New("baselines: wrong section count")
	}
	g, head, err := szReadHeader(sections[0], zfpMagic)
	if err != nil {
		return nil, nil, err
	}
	if len(head) < 9 {
		return nil, nil, errors.New("baselines: truncated header")
	}
	zz := ZFPLike{Precision: int(head[0]), Accuracy: math.Float64frombits(binary.LittleEndian.Uint64(head[1:]))}
	bits := bitstream.NewReader(sections[1])
	const bs = 4
	ndim, nx, ny, nz := g.ndim, g.nx, g.ny, g.nz
	bx, by, bz := ceilDiv(nx, bs), ceilDiv(ny, bs), 1
	if ndim == 3 {
		bz = ceilDiv(nz, bs)
	}
	// Every block costs at least its 7-bit exponent; reject dimension
	// claims the bit stream cannot possibly back (corrupt headers would
	// otherwise trigger huge allocations).
	if int64(bx)*int64(by)*int64(bz)*7 > int64(len(sections[1]))*8+8 {
		return nil, nil, errors.New("baselines: dims exceed stream capacity")
	}
	blockLen := bs * bs
	if ndim == 3 {
		blockLen = bs * bs * bs
	}
	n, err := g.vertexCount()
	if err != nil {
		return nil, nil, err
	}
	comps := make([][]float32, ndim)
	block := make([]int64, blockLen)
	vals := make([]float64, blockLen)
	for c := range comps {
		out := make([]float32, n)
		for kb := 0; kb < bz; kb++ {
			for jb := 0; jb < by; jb++ {
				for ib := 0; ib < bx; ib++ {
					eb, err := bits.ReadBits(7)
					if err != nil {
						return nil, nil, err
					}
					e := int(eb) - 63
					planes := zz.planeCount(e)
					if err := decodeBlock(bits, block, planes); err != nil {
						return nil, nil, err
					}
					inverseLift(block, bs, ndim)
					scale := math.Ldexp(1, e-blockQ)
					for i, v := range block {
						vals[i] = float64(v) * scale
					}
					scatterBlock(out, vals, nx, ny, nz, ib*bs, jb*bs, kb*bs, bs, ndim)
				}
			}
		}
		comps[c] = out
	}
	return g.dims(), comps, nil
}
