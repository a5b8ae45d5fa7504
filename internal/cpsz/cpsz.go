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

	"repro/internal/cp"
	"repro/internal/encoder"
	"repro/internal/field"
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

// Compress2D compresses a 2D field under cpSZ.
func Compress2D(f *field.Field2D, opts Options) ([]byte, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	nx, ny := f.NX, f.NY
	mesh := field.Mesh2D{NX: nx, NY: ny}
	n := safedim.MustProduct(nx, ny)
	tel := newCpszTel(opts, "2d")
	defer tel.finish()

	// Working copies (float64; overwritten with decompressed values).
	u := toF64(f.U)
	v := toF64(f.V)

	// Numerical critical point detection on the original data.
	sp := tel.stage("cp-detect")
	nc := mesh.NumCells()
	cpCell := make([]bool, nc)
	for c := 0; c < nc; c++ {
		cpCell[c] = cp.NumericalCellContains2D(mesh, c, f.U, f.V)
	}
	lossless := make([]bool, n)
	var cellBuf []int
	for i := 0; i < n; i++ {
		cellBuf = mesh.VertexCells(i, cellBuf[:0])
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
	// shared among the 3 vertices of each cell.
	var preBounds []float64
	if opts.Scheme == Decoupled {
		sp = tel.stage("derive-bounds")
		preBounds = make([]float64, n)
		for i := 0; i < n; i++ {
			preBounds[i] = deriveVertex2D(mesh, i, u, v, cellBuf) / 3
		}
		sp.End()
	}

	sp = tel.stage("quantize")
	st := newStreams(n, 2)
	delta := math.Log2(1 + opts.Rel)
	logU := make([]float64, n) // reconstructed log-domain values
	logV := make([]float64, n)

	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			idx := j*nx + i
			var xi float64
			switch {
			case lossless[idx]:
				xi = 0
			case opts.Scheme == Decoupled:
				xi = preBounds[idx]
			default:
				cellBuf = mesh.VertexCells(idx, cellBuf[:0])
				xi = deriveVertexCells2D(mesh, idx, u, v, cellBuf, cpCell)
			}
			for comp, z := range [2][]float64{u, v} {
				logs := logU
				if comp == 1 {
					logs = logV
				}
				val := z[idx]
				// Per-vertex effective relative bound.
				rel := opts.Rel
				if a := math.Abs(val); a > tinyValue && xi/a < rel {
					rel = xi / a
				}
				d := math.Log2(1 + rel)
				exp, snapped := snapDelta(d, delta)
				if xi == 0 || math.Abs(val) <= tinyValue || snapped == 0 {
					st.escape(idx, comp, val, logs, nx, i, j)
					continue
				}
				pred := predictLog(logs, st.done, nx, i, j)
				l := math.Log2(math.Abs(val))
				code := math.Round((l - pred) / (2 * snapped))
				if math.Abs(code) >= quantizer.Radius {
					st.escape(idx, comp, val, logs, nx, i, j)
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
					st.escape(idx, comp, val, logs, nx, i, j)
					continue
				}
				st.emit(comp, exp, int64(code), val < 0)
				logs[idx] = lrec
				z[idx] = vrec
			}
			st.done[idx] = true
		}
	}
	sp.End()
	tel.vertices.Add(int64(n))
	tel.escapes.Add(int64(len(st.literals) / 4))
	sp = tel.stage("entropy-code")
	defer sp.End()
	return st.pack(2, nx, ny, 0, opts)
}

// Compress3D compresses a 3D field under cpSZ.
func Compress3D(f *field.Field3D, opts Options) ([]byte, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	nx, ny, nz := f.NX, f.NY, f.NZ
	mesh := field.Mesh3D{NX: nx, NY: ny, NZ: nz}
	n := safedim.MustProduct(nx, ny, nz)
	tel := newCpszTel(opts, "3d")
	defer tel.finish()

	u := toF64(f.U)
	v := toF64(f.V)
	w := toF64(f.W)

	sp := tel.stage("cp-detect")
	nc := mesh.NumCells()
	cpCell := make([]bool, nc)
	for c := 0; c < nc; c++ {
		cpCell[c] = cp.NumericalCellContains3D(mesh, c, f.U, f.V, f.W)
	}
	lossless := make([]bool, n)
	var cellBuf []int
	for i := 0; i < n; i++ {
		cellBuf = mesh.VertexCells(i, cellBuf[:0])
		for _, c := range cellBuf {
			if cpCell[c] {
				lossless[i] = true
				tel.lossless.Inc()
				break
			}
		}
	}
	sp.End()
	var preBounds []float64
	if opts.Scheme == Decoupled {
		sp = tel.stage("derive-bounds")
		preBounds = make([]float64, n)
		for i := 0; i < n; i++ {
			preBounds[i] = deriveVertex3D(mesh, i, u, v, w, cellBuf) / 4
		}
		sp.End()
	}

	sp = tel.stage("quantize")
	st := newStreams(n, 3)
	delta := math.Log2(1 + opts.Rel)
	logs3 := [3][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}

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
					cellBuf = mesh.VertexCells(idx, cellBuf[:0])
					xi = deriveVertexCells3D(mesh, idx, u, v, w, cellBuf, cpCell)
				}
				for comp, z := range [3][]float64{u, v, w} {
					logs := logs3[comp]
					val := z[idx]
					rel := opts.Rel
					if a := math.Abs(val); a > tinyValue && xi/a < rel {
						rel = xi / a
					}
					d := math.Log2(1 + rel)
					exp, snapped := snapDelta(d, delta)
					if xi == 0 || math.Abs(val) <= tinyValue || snapped == 0 {
						st.escape3(idx, comp, val, logs, nx, ny, i, j, k)
						continue
					}
					pred := predictLog3(logs, st.done, nx, ny, i, j, k)
					l := math.Log2(math.Abs(val))
					code := math.Round((l - pred) / (2 * snapped))
					if math.Abs(code) >= quantizer.Radius {
						st.escape3(idx, comp, val, logs, nx, ny, i, j, k)
						continue
					}
					lrec := pred + code*2*snapped
					vrec := math.Exp2(lrec)
					if val < 0 {
						vrec = -vrec
					}
					if relErr(val, vrec) > rel*1.0000001 {
						st.escape3(idx, comp, val, logs, nx, ny, i, j, k)
						continue
					}
					st.emit(comp, exp, int64(code), val < 0)
					logs[idx] = lrec
					z[idx] = vrec
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
	return st.pack(3, nx, ny, nz, opts)
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

// predictLog is a masked Lorenzo predictor in the log domain.
func predictLog(logs []float64, done []bool, nx, i, j int) float64 {
	idx := j*nx + i
	w := i > 0 && done[idx-1]
	s := j > 0 && done[idx-nx]
	sw := i > 0 && j > 0 && done[idx-nx-1]
	switch {
	case w && s && sw:
		return logs[idx-1] + logs[idx-nx] - logs[idx-nx-1]
	case w:
		return logs[idx-1]
	case s:
		return logs[idx-nx]
	default:
		return 0
	}
}

func predictLog3(logs []float64, done []bool, nx, ny, i, j, k int) float64 {
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

func (st *streams) emit(comp int, exp uint8, code int64, neg bool) {
	st.expSyms = append(st.expSyms, uint32(exp))
	st.codeSyms = append(st.codeSyms, huffman.Zigzag(code))
	if neg {
		st.signBits = append(st.signBits, 1)
	} else {
		st.signBits = append(st.signBits, 0)
	}
}

func (st *streams) escape(idx, comp int, val float64, logs []float64, nx, i, j int) {
	st.expSyms = append(st.expSyms, uint32(0xFF))
	st.codeSyms = append(st.codeSyms, cpszEscape)
	st.signBits = append(st.signBits, 0)
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], math.Float32bits(float32(val)))
	st.literals = append(st.literals, b[:]...)
	logs[idx] = safeLog(val)
}

func (st *streams) escape3(idx, comp int, val float64, logs []float64, nx, ny, i, j, k int) {
	st.escape(idx, comp, val, logs, 0, 0, 0)
}

func safeLog(v float64) float64 {
	a := math.Abs(v)
	if a <= tinyValue {
		return 0
	}
	return math.Log2(a)
}

func (st *streams) pack(ndim, nx, ny, nz int, opts Options) ([]byte, error) {
	var head []byte
	head = binary.LittleEndian.AppendUint16(head, cpszMagic)
	head = append(head, byte(ndim), byte(opts.Scheme))
	head = binary.AppendUvarint(head, uint64(nx))
	head = binary.AppendUvarint(head, uint64(ny))
	if ndim == 3 {
		head = binary.AppendUvarint(head, uint64(nz))
	}
	head = binary.LittleEndian.AppendUint64(head, math.Float64bits(opts.Rel))
	return encoder.Pack(head,
		huffman.Compress(st.expSyms),
		huffman.Compress(st.codeSyms),
		huffman.Compress(st.signBits),
		st.literals)
}

// Decompress reconstructs a field compressed by Compress2D or Compress3D.
// It returns a 2D or 3D field depending on the header.
func Decompress(blob []byte) (*field.Field2D, *field.Field3D, error) {
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
	var perr error
	read := func() int {
		v, k := binary.Uvarint(head)
		if k <= 0 || v < 1 || v > 1<<28 {
			perr = errors.New("cpsz: truncated or oversized header")
			return 1
		}
		head = head[k:]
		return int(v)
	}
	nx := read()
	ny := read()
	nz := 1
	if ndim == 3 {
		nz = read()
	}
	if perr != nil {
		return nil, nil, perr
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
	ncomp := ndim
	n := safedim.MustProduct(nx, ny)
	if ndim == 3 {
		n = safedim.MustProduct(nx, ny, nz)
	}
	if len(expSyms) != n*ncomp || len(codeSyms) != n*ncomp || len(signBits) != n*ncomp {
		return nil, nil, errors.New("cpsz: stream length mismatch")
	}

	vals := make([][]float64, ncomp)
	logs := make([][]float64, ncomp)
	for c := range vals {
		vals[c] = make([]float64, n)
		logs[c] = make([]float64, n)
	}
	done := make([]bool, n)

	k := 0
	decodeOne := func(idx, comp int, pred float64) error {
		sym := codeSyms[k*ncomp+comp]
		if sym == cpszEscape {
			if len(literals) < 4 {
				return errors.New("cpsz: literal underrun")
			}
			f := math.Float32frombits(binary.LittleEndian.Uint32(literals))
			literals = literals[4:]
			vals[comp][idx] = float64(f)
			logs[comp][idx] = safeLog(float64(f))
			return nil
		}
		snapped := deltaFromExp(uint8(expSyms[k*ncomp+comp]), delta)
		code := float64(huffman.Unzigzag(sym))
		lrec := pred + code*2*snapped
		vrec := math.Exp2(lrec)
		if signBits[k*ncomp+comp] == 1 {
			vrec = -vrec
		}
		vals[comp][idx] = vrec
		logs[comp][idx] = lrec
		return nil
	}

	if ndim == 2 {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				idx := j*nx + i
				for c := 0; c < 2; c++ {
					if err := decodeOne(idx, c, predictLog(logs[c], done, nx, i, j)); err != nil {
						return nil, nil, err
					}
				}
				done[idx] = true
				k++
			}
		}
		f := field.NewField2D(nx, ny)
		for i := 0; i < n; i++ {
			f.U[i] = float32(vals[0][i])
			f.V[i] = float32(vals[1][i])
		}
		return f, nil, nil
	}
	for kz := 0; kz < nz; kz++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				idx := (kz*ny+j)*nx + i
				for c := 0; c < 3; c++ {
					if err := decodeOne(idx, c, predictLog3(logs[c], done, nx, ny, i, j, kz)); err != nil {
						return nil, nil, err
					}
				}
				done[idx] = true
				k++
			}
		}
	}
	f := field.NewField3D(nx, ny, nz)
	for i := 0; i < n; i++ {
		f.U[i] = float32(vals[0][i])
		f.V[i] = float32(vals[1][i])
		f.W[i] = float32(vals[2][i])
	}
	return nil, f, nil
}
