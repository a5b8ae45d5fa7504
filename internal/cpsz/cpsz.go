// Package cpsz reimplements the cpSZ baseline (Liang et al., "Toward
// Feature-Preserving Vector Field Compression", TVCG 2022) that the paper
// compares against.
//
// cpSZ derives per-vertex error bounds sufficient to preserve critical
// points *as extracted by numerical methods*, using floating-point
// arithmetic, and compresses under a pointwise relative error bound via a
// logarithmic transform. The differences from the proposed method are the
// points the paper's evaluation highlights:
//
//   - The derivation is floating-point and tied to numerical extraction,
//     so near-degenerate configurations can be decided differently from
//     the robust SoS test — cpSZ may exhibit a few false cases when
//     evaluated under robust extraction (Table VII).
//   - The bounds are sufficient but far from necessary and there is no
//     relaxation or speculation, so compression ratios are markedly lower.
//   - Decompression must invert the logarithmic transform, making it
//     slower than the proposed absolute-error pipeline.
//
// Two schemes are provided: the decoupled scheme derives all bounds from
// the original data up front (and must divide them among the vertices of
// each cell, making them very conservative), while the coupled scheme
// derives bounds on the fly against already-decompressed data.
package cpsz

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

// Scheme selects the cpSZ variant.
type Scheme uint8

const (
	// Decoupled derives bounds from the original data before compressing.
	Decoupled Scheme = iota
	// Coupled derives bounds on the fly during compression.
	Coupled
)

// String returns the name used in the paper's tables.
func (s Scheme) String() string {
	if s == Decoupled {
		return "decoupled"
	}
	return "coupled"
}

// Options configures cpSZ compression.
type Options struct {
	// Rel is the pointwise relative error bound (-R in the paper's
	// tables; 0.1 for 2D and 0.05 for 3D data as suggested by the
	// authors).
	Rel    float64
	Scheme Scheme
	// Tel, when non-nil, receives stage spans and per-vertex counters
	// (lossless vertices, literal escapes). TelSpan optionally parents
	// the stage spans (e.g. under a benchmark-run span).
	Tel     *telemetry.Collector
	TelSpan *telemetry.Span
}

// cpszTel bundles the instrumentation handles of one compression run; the
// zero value (telemetry disabled) makes every use a no-op.
type cpszTel struct {
	vertices, lossless, escapes *telemetry.Counter
	span                        *telemetry.Span
	ownSpan                     bool
}

func newCpszTel(opts Options, dim string) cpszTel {
	if opts.Tel == nil {
		return cpszTel{}
	}
	p := "cpsz." + dim + "." + opts.Scheme.String() + "."
	t := cpszTel{
		vertices: opts.Tel.Counter(p + "vertices"),
		lossless: opts.Tel.Counter(p + "lossless"),
		escapes:  opts.Tel.Counter(p + "literal_escapes"),
		span:     opts.TelSpan,
	}
	if t.span == nil {
		t.span = opts.Tel.Span("cpsz.compress" + dim)
		t.ownSpan = true
	}
	return t
}

func (t cpszTel) stage(name string) *telemetry.Span { return t.span.Child(name) }

func (t cpszTel) finish() {
	if t.ownSpan {
		t.span.End()
	}
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	// Written as a negated range test so a NaN Rel fails too.
	if !(o.Rel > 0 && o.Rel < 1) {
		return errors.New("cpsz: Rel must be in (0,1)")
	}
	if o.Scheme > Coupled {
		return fmt.Errorf("cpsz: unknown scheme %d", o.Scheme)
	}
	return nil
}

const (
	cpszMagic = 0x5A43 // "CZ"
	// logPrecision is the fixed-point resolution of the log-domain
	// quantizer grid (bins are multiples of delta/2^k on this grid).
	tinyValue = 1e-30 // |v| below this is escaped to a literal
)

// Compress compresses a field of dims [NX, NY] or [NX, NY, NZ] (one
// component per dimension) under cpSZ. A 2D field is the NZ = 1 case of
// one k, j, i raster walk; only the mesh and the float bound differ.
func Compress(dims []int, comps [][]float32, opts Options) ([]byte, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n, err := safedim.Field(dims, comps, len(dims))
	if err != nil {
		return nil, fmt.Errorf("cpsz: %w", err)
	}
	nd := len(dims)
	nx, ny, nz := dims[0], dims[1], 1
	if nd == 3 {
		nz = dims[2]
	}
	m := newMesh(dims, comps)
	tel := newCpszTel(opts, strconv.Itoa(nd)+"d")
	defer tel.finish()

	// Working copies (float64; overwritten with decompressed values).
	z := make([][]float64, nd)
	for c := range z {
		z[c] = toF64(comps[c])
	}

	// Numerical critical point detection on the original data.
	sp := tel.stage("cp-detect")
	cpCell := make([]bool, m.numCells)
	for c := range cpCell {
		cpCell[c] = m.contains(c)
	}
	lossless := make([]bool, n)
	var cellBuf []int
	for i := 0; i < n; i++ {
		cellBuf = m.vertexCells(i, cellBuf[:0])
		for _, c := range cellBuf {
			if cpCell[c] {
				lossless[i] = true
				tel.lossless.Inc()
				break
			}
		}
	}
	sp.End()

	// Decoupled: derive every bound up front from the original data,
	// shared among the nd+1 vertices of each cell.
	var preBounds []float64
	if opts.Scheme == Decoupled {
		sp = tel.stage("derive-bounds")
		preBounds = make([]float64, n)
		for i := 0; i < n; i++ {
			cellBuf = m.vertexCells(i, cellBuf[:0])
			preBounds[i] = deriveVertexCells(m, i, z, cellBuf, nil) / float64(nd+1)
		}
		sp.End()
	}

	sp = tel.stage("quantize")
	st := newStreams(n, nd)
	delta := math.Log2(1 + opts.Rel)
	logs := make([][]float64, nd) // reconstructed log-domain values
	for c := range logs {
		logs[c] = make([]float64, n)
	}

	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				idx := (k*ny+j)*nx + i
				var xi float64
				switch {
				case lossless[idx]:
					xi = 0
				case opts.Scheme == Decoupled:
					xi = preBounds[idx]
				default:
					cellBuf = m.vertexCells(idx, cellBuf[:0])
					xi = deriveVertexCells(m, idx, z, cellBuf, cpCell)
				}
				for comp := range z {
					val := z[comp][idx]
					// Per-vertex effective relative bound.
					rel := opts.Rel
					if a := math.Abs(val); a > tinyValue && xi/a < rel {
						rel = xi / a
					}
					d := math.Log2(1 + rel)
					exp, snapped := snapDelta(d, delta)
					if xi == 0 || math.Abs(val) <= tinyValue || snapped == 0 {
						st.escape(idx, val, logs[comp])
						continue
					}
					pred := predictLog(logs[comp], st.done, nx, ny, i, j, k)
					l := math.Log2(math.Abs(val))
					code := math.Round((l - pred) / (2 * snapped))
					if math.Abs(code) >= quantizer.Radius {
						st.escape(idx, val, logs[comp])
						continue
					}
					lrec := pred + code*2*snapped
					vrec := math.Exp2(lrec)
					if val < 0 {
						vrec = -vrec
					}
					// Defensive: the log-domain bound must imply the value
					// bound; escape when float slop violates it.
					if relErr(val, vrec) > rel*1.0000001 {
						st.escape(idx, val, logs[comp])
						continue
					}
					st.emit(exp, int64(code), val < 0)
					logs[comp][idx] = lrec
					z[comp][idx] = vrec
				}
				st.done[idx] = true
			}
		}
	}
	sp.End()
	tel.vertices.Add(int64(n))
	tel.escapes.Add(int64(len(st.literals) / 4))
	sp = tel.stage("entropy-code")
	defer sp.End()
	return st.pack(dims, opts)
}

func relErr(orig, rec float64) float64 {
	if orig == 0 {
		if rec == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(rec-orig) / math.Abs(orig)
}

func toF64(a []float32) []float64 {
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = float64(v)
	}
	return out
}

// snapDelta snaps a log-domain bound d onto the grid {delta/2^k} and
// returns the exponent symbol and the snapped value (0 ⇒ lossless).
func snapDelta(d, delta float64) (uint8, float64) {
	if d <= 0 || delta <= 0 {
		return 0xFF, 0
	}
	b := delta
	for k := 0; k < 40; k++ {
		if b <= d {
			return uint8(k), b
		}
		b /= 2
	}
	return 0xFF, 0
}

func deltaFromExp(exp uint8, delta float64) float64 {
	if exp == 0xFF {
		return 0
	}
	return delta / math.Pow(2, float64(exp))
}

// predictLog is a masked Lorenzo predictor in the log domain. On a 2D
// field (k = 0 throughout) it reduces to the 2D stencil.
func predictLog(logs []float64, done []bool, nx, ny, i, j, k int) float64 {
	idx := (k*ny+j)*nx + i
	sx, sy, sz := 1, nx, nx*ny
	av := func(d int, cond bool) bool { return cond && done[idx-d] }
	x := av(sx, i > 0)
	y := av(sy, j > 0)
	z := av(sz, k > 0)
	switch {
	case x && y && z && done[idx-sx-sy] && done[idx-sx-sz] && done[idx-sy-sz] && done[idx-sx-sy-sz]:
		return logs[idx-sx] + logs[idx-sy] + logs[idx-sz] -
			logs[idx-sx-sy] - logs[idx-sx-sz] - logs[idx-sy-sz] +
			logs[idx-sx-sy-sz]
	case x && y && done[idx-sx-sy]:
		return logs[idx-sx] + logs[idx-sy] - logs[idx-sx-sy]
	case x:
		return logs[idx-sx]
	case y:
		return logs[idx-sy]
	case z:
		return logs[idx-sz]
	default:
		return 0
	}
}

// streams accumulates the output of the cpSZ encoder.
type streams struct {
	expSyms  []uint32
	codeSyms []uint32
	signBits []uint32
	literals []byte
	done     []bool
}

func newStreams(n, ncomp int) *streams {
	sz := safedim.MustProduct(n, ncomp)
	return &streams{
		expSyms:  make([]uint32, 0, sz),
		codeSyms: make([]uint32, 0, sz),
		signBits: make([]uint32, 0, sz),
		done:     make([]bool, n),
	}
}

const cpszEscape = uint32(2 * quantizer.Radius)

func (st *streams) emit(exp uint8, code int64, neg bool) {
	st.expSyms = append(st.expSyms, uint32(exp))
	st.codeSyms = append(st.codeSyms, huffman.Zigzag(code))
	if neg {
		st.signBits = append(st.signBits, 1)
	} else {
		st.signBits = append(st.signBits, 0)
	}
}

func (st *streams) escape(idx int, val float64, logs []float64) {
	st.expSyms = append(st.expSyms, uint32(0xFF))
	st.codeSyms = append(st.codeSyms, cpszEscape)
	st.signBits = append(st.signBits, 0)
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], math.Float32bits(float32(val)))
	st.literals = append(st.literals, b[:]...)
	logs[idx] = safeLog(val)
}

func safeLog(v float64) float64 {
	a := math.Abs(v)
	if a <= tinyValue {
		return 0
	}
	return math.Log2(a)
}

func (st *streams) pack(dims []int, opts Options) ([]byte, error) {
	var head []byte
	head = binary.LittleEndian.AppendUint16(head, cpszMagic)
	head = append(head, byte(len(dims)), byte(opts.Scheme))
	for _, d := range dims {
		head = binary.AppendUvarint(head, uint64(d))
	}
	head = binary.LittleEndian.AppendUint64(head, math.Float64bits(opts.Rel))
	return encoder.Pack(head,
		huffman.Compress(st.expSyms),
		huffman.Compress(st.codeSyms),
		huffman.Compress(st.signBits),
		st.literals)
}

// Decompress reconstructs a field compressed by Compress and returns its
// dims ([NX, NY] or [NX, NY, NZ]) and components.
func Decompress(blob []byte) ([]int, [][]float32, error) {
	sections, err := encoder.Unpack(blob)
	if err != nil {
		return nil, nil, err
	}
	if len(sections) != 5 {
		return nil, nil, errors.New("cpsz: wrong section count")
	}
	head := sections[0]
	if len(head) < 4 || binary.LittleEndian.Uint16(head) != cpszMagic {
		return nil, nil, errors.New("cpsz: bad magic")
	}
	ndim := int(head[2])
	if ndim != 2 && ndim != 3 {
		return nil, nil, errors.New("cpsz: bad dimensionality")
	}
	head = head[4:]
	// Bounds-checked varint reads: a truncated buffer (k <= 0) or an
	// absurd dimension must fail cleanly, not slice out of range or
	// overflow the vertex-count product below.
	dims := make([]int, ndim)
	for a := range dims {
		v, k := binary.Uvarint(head)
		if k <= 0 || v < 1 || v > 1<<28 {
			return nil, nil, errors.New("cpsz: truncated or oversized header")
		}
		head = head[k:]
		dims[a] = int(v)
	}
	nx, ny, nz := dims[0], dims[1], 1
	if ndim == 3 {
		nz = dims[2]
	}
	if p := uint64(nx) * uint64(ny); p > 1<<40 || p > (1<<40)/uint64(nz) {
		return nil, nil, errors.New("cpsz: field too large")
	}
	if len(head) < 8 {
		return nil, nil, errors.New("cpsz: truncated header")
	}
	rel := math.Float64frombits(binary.LittleEndian.Uint64(head))
	delta := math.Log2(1 + rel)

	expSyms, err := huffman.Decompress(sections[1])
	if err != nil {
		return nil, nil, err
	}
	codeSyms, err := huffman.Decompress(sections[2])
	if err != nil {
		return nil, nil, err
	}
	signBits, err := huffman.Decompress(sections[3])
	if err != nil {
		return nil, nil, err
	}
	literals := sections[4]

	// The vertex count cannot overflow: the header check above bounds
	// nx*ny*nz by 2^40.
	n := safedim.MustProduct(dims...)
	if len(expSyms) != n*ndim || len(codeSyms) != n*ndim || len(signBits) != n*ndim {
		return nil, nil, errors.New("cpsz: stream length mismatch")
	}

	out := make([][]float32, ndim)
	logs := make([][]float64, ndim)
	for c := range out {
		out[c] = make([]float32, n)
		logs[c] = make([]float64, n)
	}
	done := make([]bool, n)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				idx := (k*ny+j)*nx + i
				for c := range out {
					s := idx*ndim + c // symbols interleave the components
					if codeSyms[s] == cpszEscape {
						if len(literals) < 4 {
							return nil, nil, errors.New("cpsz: literal underrun")
						}
						f := math.Float32frombits(binary.LittleEndian.Uint32(literals))
						literals = literals[4:]
						out[c][idx] = f
						logs[c][idx] = safeLog(float64(f))
						continue
					}
					pred := predictLog(logs[c], done, nx, ny, i, j, k)
					snapped := deltaFromExp(uint8(expSyms[s]), delta)
					code := float64(huffman.Unzigzag(codeSyms[s]))
					lrec := pred + code*2*snapped
					vrec := math.Exp2(lrec)
					if signBits[s] == 1 {
						vrec = -vrec
					}
					out[c][idx] = float32(vrec)
					logs[c][idx] = lrec
				}
				done[idx] = true
			}
		}
	}
	return dims, out, nil
}
