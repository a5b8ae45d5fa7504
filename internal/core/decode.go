package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/encoder"
	"repro/internal/fixed"
	"repro/internal/huffman"
	"repro/internal/integrity"
	"repro/internal/quantizer"
)

// The dimension-generic decoder. Decompression replays the visit order
// and the stored bounds only — no critical point detection or bound
// derivation runs, which is why it is several times faster than
// compression. decodeFixed is one pipeline over pooled buffers: the
// bound and code streams are Huffman-decoded, and the components are
// reconstructed run by run in visit order (replay). A whole-domain block
// decodes its code stream on a helper goroutine while the caller decodes
// the bound stream and reconstructs behind it; a placed block, and any
// block under GOMAXPROCS 1, decodes the two streams one after the other
// on the caller's goroutine. The output is the same either way. The
// decoders in decompress.go are thin adapters over decodeFixed.

// vertexOrder is the order in which the encoder visits a block's own
// vertices and the decoder replays them. It has one phase (raster) or two
// (phaseOne, phaseTwo), and each phase is a list of tasks: the encoder
// sweeps the tasks of a phase in parallel, since no vertex of one task
// reads or writes what another task of the phase reads, and every
// stream position is fixed by the order. The decoder replays the tasks
// one after the other.
//
//   - raster (a whole block of one piece): one phase, one task, every row.
//   - two-phase (a placed block, ratio-oriented strategy): phase 1 is
//     the vertices off the neighbor-facing max planes, phase 2 those on
//     them; one task each. A 2D block has nz == 1 and no Z max plane.
//   - pieces (a whole-domain block cut into pieces along its slowest
//     axis): phase 1 task p is piece p without its top plane, the last
//     piece whole; phase 2 task p is piece p's top plane, the seam it
//     shares with piece p+1.
//
// Every vertex reads lower Lorenzo neighbors that are visited before it
// when their raster index is at least its run's lo: in the raster and
// two-phase orders lo is 0 (a vertex off the max planes has no lower
// neighbor on one, and the second phase is itself a raster); in a piece
// it is the piece's first vertex, whose lower slow-axis plane is a seam
// visited last. Under the reduced Lorenzo stencil (a version-4 block's
// flag) every run's lo is raised to the start of its slow-axis slice —
// its plane in 3D, its row in 2D — so the stencil drops the slow axis's
// terms everywhere, as it does on a piece's first plane.
type vertexOrder struct {
	nx, ny, nz int
	twoPhase   bool
	maxPlane   [3]bool // a neighbor faces the max plane of axis X, Y, Z
	pieces     int     // slow-axis pieces; ≤ 1 for the raster and two-phase orders
	reduced    bool    // the reduced Lorenzo stencil
}

// The phases runs visits: every vertex (a raster block), or the first
// or second phase of a two-phase or pieced block.
const (
	phaseAll = iota
	phaseOne
	phaseTwo
)

// split reports an order of two phases (two-phase or pieces), not one
// raster phase.
func (o *vertexOrder) split() bool { return o.twoPhase || o.pieces > 1 }

// tasks returns the number of tasks of phase.
func (o *vertexOrder) tasks(phase int) int {
	switch {
	case o.pieces > 1 && phase == phaseTwo:
		return o.pieces - 1
	case o.pieces > 1:
		return o.pieces
	}
	return 1
}

// slow returns the slowest axis's extent (rows in 2D, planes in 3D) and
// the rows in one of its planes.
func (o *vertexOrder) slow() (planes, rows int) {
	if o.nz > 1 {
		return o.nz, o.ny
	}
	return o.ny, 1
}

// pieceStart returns the first slow-axis plane of piece p; p = pieces
// gives the extent.
func (o *vertexOrder) pieceStart(p int) int {
	n, _ := o.slow()
	return p * n / o.pieces
}

// phase2 reports whether own vertex (oi, oj, ok) lies on a
// neighbor-facing max plane, which a two-phase block visits last.
func (o *vertexOrder) phase2(oi, oj, ok int) bool {
	return (o.maxPlane[0] && oi == o.nx-1) ||
		(o.maxPlane[1] && oj == o.ny-1) ||
		(o.maxPlane[2] && ok == o.nz-1)
}

// orderRun is one run of the visit order: own vertices oi = i0 … i1−1
// of row (oj, ok), consecutive raster indices visited at consecutive
// stream positions from pos. Lower neighbors below raster index lo are
// visited after the run (see vertexOrder).
type orderRun struct {
	oj, ok, i0, i1, pos, lo int
}

// runs calls visit on the runs of task t of phase in visit order; an
// error from visit stops the walk and is returned.
func (o *vertexOrder) runs(phase, t int, visit func(r orderRun) error) error {
	if o.pieces > 1 {
		return o.pieceRuns(phase, t, visit)
	}
	// A raster phase is one run per row. In a two-phase block a row on a
	// neighbor-facing Y or Z max plane belongs to the second phase whole;
	// any other row gives its vertex on a neighbor-facing X max plane to
	// the second phase and the rest to the first.
	pos := 0
	if phase == phaseTwo {
		pos = o.phaseOneLen()
	}
	for ok := 0; ok < o.nz; ok++ {
		for oj := 0; oj < o.ny; oj++ {
			i0, i1 := 0, o.nx
			// oi = 0 is off the X max plane (nx ≥ 2), so phase2 asks
			// whether the whole row lies on a Y or Z max plane.
			switch onMax := o.phase2(0, oj, ok); {
			case phase == phaseAll:
			case onMax && phase == phaseOne, !onMax && phase == phaseTwo && !o.maxPlane[0]:
				continue
			case !onMax && phase == phaseOne && o.maxPlane[0]:
				i1 = o.nx - 1
			case !onMax && phase == phaseTwo:
				i0 = o.nx - 1
			}
			if err := visit(orderRun{oj: oj, ok: ok, i0: i0, i1: i1, pos: pos, lo: o.runLo(oj, ok, 0)}); err != nil {
				return err
			}
			pos += i1 - i0
		}
	}
	return nil
}

// phaseOneLen is the number of vertices the first phase of a two-phase
// block visits: those off every neighbor-facing max plane.
func (o *vertexOrder) phaseOneLen() int {
	n := 1
	for a, ext := range [3]int{o.nx, o.ny, o.nz} {
		if o.maxPlane[a] {
			ext--
		}
		n *= ext
	}
	return n
}

// pieceRuns calls visit on the rows of piece p's phase-1 planes, or of
// its seam plane in phase 2. Phase 1 holds the pieces' planes less the
// k−1 seams, piece after piece; the seams follow in piece order.
func (o *vertexOrder) pieceRuns(phase, p int, visit func(r orderRun) error) error {
	n, rows := o.slow()
	s0, s1 := o.pieceStart(p), o.pieceStart(p+1)
	plane := o.nx * rows
	first, last, pos := s0, s1, (s0-p)*plane
	if phase == phaseTwo {
		first, pos = s1-1, (n-o.pieces+1+p)*plane
	} else if p < o.pieces-1 {
		last--
	}
	for r := first * rows; r < last*rows; r++ {
		oj, ok := r%o.ny, r/o.ny
		if err := visit(orderRun{oj: oj, ok: ok, i1: o.nx, pos: pos, lo: o.runLo(oj, ok, s0*plane)}); err != nil {
			return err
		}
		pos += o.nx
	}
	return nil
}

// runLo returns the lo of a run in row (oj, ok) whose order gives it lo:
// under the reduced stencil, raised to the start of the row's slow-axis
// slice.
func (o *vertexOrder) runLo(oj, ok, lo int) int {
	switch {
	case !o.reduced:
		return lo
	case o.nz > 1:
		return max(lo, ok*o.nx*o.ny)
	}
	return max(lo, oj*o.nx)
}

// allRuns calls visit on every run of the block's order, task after
// task.
func (o *vertexOrder) allRuns(visit func(r orderRun) error) error {
	if !o.split() {
		return o.runs(phaseAll, 0, visit)
	}
	for phase := phaseOne; phase <= phaseTwo; phase++ {
		for t := 0; t < o.tasks(phase); t++ {
			if err := o.runs(phase, t, visit); err != nil {
				return err
			}
		}
	}
	return nil
}

// minPipelineVertices is the smallest whole-domain block whose code
// stream decodes on a helper goroutine; below it, starting and joining
// the helper costs more than the overlap gains. Timed on a 2-vCPU Linux
// container as the median warm Decompress under GOMAXPROCS 2 over
// GOMAXPROCS 1, alternating in one process (NoSpec, τ = 1% of the
// range), two runs each: Ocean 32×32 / 64×32 / 64×64 / 128×64 /
// 256×256 1.04 / 1.03–1.05 / 0.98–1.00 / 0.92 / 0.74–0.75×; Nek 12³ /
// 16³ / 20³ / 32³ 1.03 / 0.93–0.96 / 0.91–0.94 / 0.74–0.87×.
const minPipelineVertices = 4096

// decodeScratch carries one decode, pooled like the kernel's scratch
// (scratch.go): the working buffers — the fixed-point components, the
// previous frame's (a temporal block), the two symbol streams and the
// run buffers — and the state of the replay, which walks the visit
// order run by run and turns each vertex's bound and code symbols back
// into its components. The buffers only grow, and none but zeros is
// cleared: the stream decodes write every symbol, and the replay writes
// every component value and run slot before it reads it.
//
// Ownership: decodeFixed hands the scratch to its caller, which reads
// the components and then calls release; the components must not be
// used afterwards.
type decodeScratch struct {
	comps [maxComps][]int64
	prev  [maxComps][]int64
	exp   []uint32
	code  []uint32
	// The run buffers, sized for the longest run (a row): runSteps holds
	// the steps of the run's vertices, runRes the residuals of those on
	// the residual stream, vertex-major, runCode the run's code symbols
	// and runLits the literals of their escapes, indexed like them;
	// zeros stands in for the Lorenzo terms a run's position lacks.
	runSteps []int64
	runRes   []int64
	runCode  []uint32
	runLits  []int64
	zeros    []int64

	order    vertexOrder
	nc       int
	temporal bool
	// split reports a block of version 3 or later: a bound-0 vertex's
	// components are on the residual stream res, and the code stream
	// holds the lossy vertices' symbols only; codePos is the replay's
	// place in it.
	split   bool
	lits    []byte
	res     []byte
	codePos int
	// steps maps a bound symbol to its quantization step 2·bound+1, or
	// to 0 (never a step: it is odd) for a symbol off the bound grid.
	steps [256]int64
}

var decodePool = newSharedPool[decodeScratch]()

// release returns the scratch to the pool, without its view of the
// inflated block's literals.
func (d *decodeScratch) release() {
	d.lits, d.res, d.runCode = nil, nil, nil
	decodePool.put(d)
}

// decodeFixed reconstructs the fixed-point components of a compressed
// block of the expected dimensionality (0 accepts either; the component
// count equals the dimensionality) into a pooled scratch, which the
// caller releases. For a temporally predicted block prevOf must return
// the previous frame's float components; the adapters supply it along
// with their frame validation.
//
// Every check runs before the working buffers are sized: the header
// (and the block's CRC), and both streams' symbol counts against the
// header's vertex count (from version 3 the code stream's exact count,
// nc per vertex of bound above 0, is the replay's to check). The replay
// rejects a bound symbol off the bound grid, a code, literal or
// residual stream shorter than the block needs, a code stream longer,
// and, from version 3, a literal or residual stream longer. Of several
// faults in one block the first met in stream order is reported, the
// bound stream's before the code stream's before the replay's.
func decodeFixed(blob []byte, wantDim int, prevOf func(h *header) ([][]float32, error)) (*header, *decodeScratch, error) {
	sections, err := encoder.Unpack(blob)
	if err != nil {
		return nil, nil, err
	}
	if len(sections) != 4 {
		return nil, nil, errors.New("core: wrong section count")
	}
	var h header
	if err := h.unmarshal(sections[0]); err != nil {
		return nil, nil, err
	}
	if wantDim != 0 && h.NDim != wantDim {
		return nil, nil, fmt.Errorf("core: expected %dD block, got %dD", wantDim, h.NDim)
	}
	// Version-2 and -3 blocks checksum the header and the entropy-coded
	// payload; verify before decoding so a flipped bit — whether it lands
	// in a header field or in the payload — surfaces as a typed error,
	// never as a silently wrong field. Version-1 (seed) blocks carry no
	// checksum and decode as before.
	literals, residuals := sections[3], []byte(nil)
	switch h.Version {
	case version2:
		if got := h.payloadChecksum(sections[1], sections[2], sections[3]); got != h.PayloadCRC {
			return nil, nil, payloadError(h.PayloadCRC, got)
		}
	case version3, version4:
		if literals, residuals, err = splitSection3(sections); err != nil {
			return nil, nil, err
		}
	}
	n, err := h.vertexCount()
	if err != nil {
		return nil, nil, err
	}
	exp, err := huffman.Open(sections[1])
	if err != nil {
		return nil, nil, boundStreamError(err)
	}
	code, err := huffman.Open(sections[2])
	if err != nil {
		return nil, nil, codeStreamError(err)
	}
	// From version 3 the code stream holds the lossy vertices' symbols
	// only; the bound stream says how many after it is decoded.
	if exp.Len() != n || code.Len() > h.NDim*n || h.Version < version3 && code.Len() != h.NDim*n {
		return nil, nil, errStreamLength
	}
	var prev [][]float32
	if h.Temporal {
		if prev, err = prevOf(&h); err != nil {
			return nil, nil, err
		}
	}
	ds := decodePool.get()
	ds.split, ds.res = h.Version >= version3, residuals
	if err := ds.decode(&h, exp, code, literals, prev); err != nil {
		ds.release()
		return nil, nil, err
	}
	return &h, ds, nil
}

var (
	errStreamLength     = errors.New("core: stream length mismatch")
	errLiteralUnderrun  = errors.New("core: literal stream underrun")
	errResidualUnderrun = errors.New("core: residual stream underrun")
	errStreamOverrun    = errors.New("core: literal or residual stream overrun")
	errSection3         = errors.New("core: malformed literal and residual section")
)

func payloadError(want, got uint32) error {
	return &integrity.IntegrityError{Container: "block", Section: "payload", Slab: -1, Want: want, Got: got}
}

// splitSection3 checks the CRC of a block of version 3 or later, at the
// front of section 3, and returns the literal and residual streams
// behind it.
func splitSection3(sections [][]byte) (literals, residuals []byte, err error) {
	sec := sections[3]
	if len(sec) < 4 {
		return nil, nil, errSection3
	}
	want := binary.LittleEndian.Uint32(sec)
	sec = sec[4:]
	if got := integrity.Checksum(sections[0], sections[1], sections[2], sec); got != want {
		return nil, nil, payloadError(want, got)
	}
	l, k := binary.Uvarint(sec)
	if k <= 0 || l > uint64(len(sec)-k) {
		return nil, nil, errSection3
	}
	sec = sec[k:]
	return sec[:l], sec[l:], nil
}

func boundStreamError(err error) error { return fmt.Errorf("core: bound stream: %w", err) }
func codeStreamError(err error) error  { return fmt.Errorf("core: code stream: %w", err) }

// decode sizes the scratch for the block, builds the step table for its
// τ′, decodes both streams and replays the components: pipelined for a
// whole-domain block of at least minPipelineVertices under GOMAXPROCS
// ≥ 2, else serially.
func (d *decodeScratch) decode(h *header, exp, code *huffman.Stream, literals []byte, prev [][]float32) error {
	n, nc := exp.Len(), h.NDim
	nz := 1
	if h.NDim == 3 {
		nz = h.NZ
	}
	d.order = vertexOrder{nx: h.NX, ny: h.NY, nz: nz, twoPhase: h.Order == orderTwoPhase,
		maxPlane: [3]bool{h.HasGhost[SideMaxX], h.HasGhost[SideMaxY], h.NDim == 3 && h.HasGhost[SideMaxZ]},
		pieces:   h.Pieces, reduced: h.Reduced}
	d.nc, d.temporal, d.lits = nc, h.Temporal, literals
	d.exp = resize(d.exp, n)
	d.code = resize(d.code, code.Len())
	d.runSteps = resize(d.runSteps, h.NX)
	d.runRes = resize(d.runRes, nc*h.NX)
	d.runLits = resize(d.runLits, nc*h.NX)
	d.zeros = grow(d.zeros, h.NX)
	tr := fixed.FromShift(h.Shift)
	for c := 0; c < nc; c++ {
		d.comps[c] = resize(d.comps[c], n)
		if h.Temporal {
			d.prev[c] = resize(d.prev[c], n)
			tr.ToFixed(prev[c], d.prev[c])
		}
	}
	for s := range d.steps {
		d.steps[s] = 0
		if s <= quantizer.MaxBoundUp+quantizer.MaxBoundDown || s == int(quantizer.LosslessSym) {
			d.steps[s] = 2*quantizer.BoundFromSym(uint8(s), h.Tau) + 1
		}
	}
	if !h.placed() && n >= minPipelineVertices && runtime.GOMAXPROCS(0) >= 2 {
		return d.pipelined(exp, code)
	}
	return guard(func() error {
		if err := exp.DecodeInto(d.exp, nil, nil); err != nil {
			return boundStreamError(err)
		}
		if err := code.DecodeInto(d.code, nil, nil); err != nil {
			return codeStreamError(err)
		}
		return d.run(nil)
	})
}

// spinPolls is how often a replay waiting on the code decoder polls
// with runtime.Gosched before it sleeps between polls. A wait on a free
// core ends within a few polls; on a host with fewer free cores than
// goroutines the sleep hands the core to the decoder instead of
// spinning against it.
const spinPolls = 64

// codeFailed is the progress a failed code-stream decode publishes, so
// a replay waiting on it stops.
const codeFailed = -1

// errCodeFailed is the replay's error when the code stream failed; the
// pipeline returns the code stream's own error instead.
var errCodeFailed = errors.New("core: code stream failed")

// pipelined decodes the code stream on a helper goroutine while the
// caller decodes the bound stream and replays behind the code decoder's
// published progress. An error or a panic on either side stops the
// other, and pipelined returns only after the helper has, with a panic
// turned into an error. The error returned is the one the serial decode
// would meet first: the bound stream's, then the code stream's, then the
// replay's.
func (d *decodeScratch) pipelined(exp, code *huffman.Stream) error {
	var done atomic.Int64
	var stop atomic.Bool
	codeErr := make(chan error, 1)
	go func() {
		err := guard(func() error {
			if pipelineHook != nil {
				pipelineHook()
			}
			return code.DecodeInto(d.code, &done, &stop)
		})
		if err != nil {
			done.Store(codeFailed)
		}
		codeErr <- err
	}()
	err := guard(func() error { return exp.DecodeInto(d.exp, nil, nil) })
	boundFailed := err != nil
	if boundFailed {
		err = boundStreamError(err)
	} else {
		err = guard(func() error { return d.run(&done) })
	}
	if err != nil {
		stop.Store(true)
	}
	cerr := <-codeErr
	if !boundFailed && cerr != nil && !errors.Is(cerr, huffman.ErrStopped) {
		return codeStreamError(cerr)
	}
	return err
}

// pipelineHook, when set (by tests), runs on the helper goroutine of a
// pipelined decode before it decodes the code stream.
var pipelineHook func()

// guard runs f and returns its error, or a panic in f as an error.
func guard(f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("core: decode panicked: %v", p)
		}
	}()
	return f()
}

// run replays every run in visit order. With done not nil the code
// stream is still being decoded on another goroutine, and each run
// first waits until done covers its code symbols. The runs must use up
// the code stream exactly — from version 3 its length is checked here,
// against the bound symbols — and from version 3 the literal and
// residual streams too.
func (d *decodeScratch) run(done *atomic.Int64) error {
	avail := int64(len(d.code))
	if done != nil {
		avail = done.Load()
	}
	d.codePos = 0
	err := d.order.allRuns(func(run orderRun) error {
		need := d.codePos + d.nc*(run.i1-run.i0)
		if d.split && (avail < int64(need) || need > len(d.code)) {
			// Whether the run's code symbols are there depends on how
			// many of its vertices have them.
			if need = d.codePos + d.nc*d.lossy(run); need > len(d.code) {
				return errStreamLength
			}
		}
		for polls := 0; avail < int64(need); polls++ {
			if avail == codeFailed {
				return errCodeFailed
			}
			if polls < spinPolls {
				runtime.Gosched()
			} else {
				time.Sleep(time.Microsecond)
			}
			avail = done.Load()
		}
		if err := d.prepare(run); err != nil {
			return err
		}
		d.replayRun(run)
		return nil
	})
	switch {
	case err != nil:
	case d.codePos != len(d.code):
		err = errStreamLength
	case d.split && len(d.lits)+len(d.res) > 0:
		err = errStreamOverrun
	}
	return err
}

// lossy counts a run's vertices whose codes are on the code stream.
func (d *decodeScratch) lossy(run orderRun) int {
	n := 0
	for _, e := range d.exp[run.pos : run.pos+run.i1-run.i0] {
		if e != uint32(quantizer.LosslessSym) {
			n++
		}
	}
	return n
}

// prepare checks the bound symbols of a run and fills runSteps with
// their steps, 0 for a vertex whose components are on the residual
// stream, and runRes with those residuals, vertex-major. It then takes
// the run's code symbols off the code stream into runCode and pops the
// literals of their escapes into runLits, indexed like runCode.
func (d *decodeScratch) prepare(run orderRun) error {
	n, nc := run.i1-run.i0, d.nc
	steps := d.runSteps[:n]
	lossy := 0
	for k, e := range d.exp[run.pos : run.pos+n] {
		if e > 255 || d.steps[e] == 0 {
			return fmt.Errorf("core: corrupt bound stream: symbol %d is off the bound grid", e)
		}
		steps[k] = d.steps[e]
		if !d.split || e != uint32(quantizer.LosslessSym) {
			lossy++
			continue
		}
		steps[k] = 0
		for j := k * nc; j < k*nc+nc; j++ {
			if len(d.res) > 0 && d.res[0] < 0x80 {
				// A one-byte varint, nearly every residual.
				b := int64(d.res[0])
				d.runRes[j], d.res = b>>1^-(b&1), d.res[1:]
				continue
			}
			var ok bool
			if d.runRes[j], d.res, ok = readResidual(d.res); !ok {
				return errResidualUnderrun
			}
		}
	}
	d.runCode = d.code[d.codePos : d.codePos+nc*lossy]
	d.codePos += nc * lossy
	for j, s := range d.runCode {
		if s == escapeSym {
			if len(d.lits) < 4 {
				return errLiteralUnderrun
			}
			d.runLits[j], d.lits = readLiteral(d.lits)
		}
	}
	return nil
}

// replayRun reconstructs a prepared run one component at a time. An
// escaped value is its literal. A temporal block predicts each vertex by
// the previous frame's value. The Lorenzo prediction of raster index i
// is z[i−1] + D(i) − D(i−1), where D(i) sums i's lower neighbors off its
// row: z[i−sy] + z[i−sz] − z[i−sy−sz] in the interior, z[i−sy] on the
// first plane, z[i−sz] on the first row of a later plane, nothing on
// the first row of the first plane — where a first row or plane is one
// whose lower neighbors lie below the run's lo, as on a piece's first
// plane; at oi = 0 the terms z[i−1] and D(i−1) are 0. Each term of D is
// a view of the row it reads, or of zeros where the run's position
// lacks it, fixed for the run, and z[i−1] − D(i−1) carries over from
// the previous vertex. The sum equals predictor.Lorenzo's term for term
// in two's-complement arithmetic, so the values match the encoder's bit
// for bit.
func (d *decodeScratch) replayRun(run orderRun) {
	o := &d.order
	sy, sz := o.nx, o.nx*o.ny
	i0 := (run.ok*o.ny+run.oj)*o.nx + run.i0
	// Whether the run's rows at −sy and −sz are decoded: the same for
	// every vertex of the run, as lo starts a row.
	hasY := run.oj > 0 && i0-sy >= run.lo
	hasZ := run.ok > 0 && i0-sz >= run.lo
	steps := d.runSteps[:run.i1-run.i0]
	n, nc := len(steps), d.nc
	code, lits, res := d.runCode, d.runLits, d.runRes
	for c := 0; c < nc; c++ {
		out := d.comps[c][i0 : i0+n]
		// ci walks the run's code symbols of component c: nc further
		// at each vertex that has them (a step above 0).
		ci := c
		if d.temporal {
			prev := d.prev[c][i0 : i0+n]
			for k, step := range steps {
				if step == 0 {
					out[k] = prev[k] + res[k*nc+c]
					continue
				}
				s := code[ci]
				v := prev[k] + huffman.Unzigzag(s)*step
				if s == escapeSym {
					v = lits[ci]
				}
				ci += nc
				out[k] = v
			}
			continue
		}
		z := d.comps[c]
		// D's terms: the rows at −sy, −sz and −sy−sz.
		ty, tz, tyz := d.zeros[:n], d.zeros[:n], d.zeros[:n]
		var carry int64 // z[i−1] − D(i−1)
		if hasY {
			ty = z[i0-sy : i0-sy+n]
		}
		if hasZ {
			tz = z[i0-sz : i0-sz+n]
		}
		if hasY && hasZ {
			tyz = z[i0-sy-sz : i0-sy-sz+n]
		}
		if run.i0 > 0 {
			// The one-vertex runs on a two-phase block's X max plane.
			carry = z[i0-1]
			if hasY {
				carry -= z[i0-1-sy]
			}
			if hasZ {
				carry -= z[i0-1-sz]
			}
			if hasY && hasZ {
				carry += z[i0-1-sy-sz]
			}
		}
		for k, step := range steps {
			dk := ty[k] + tz[k] - tyz[k]
			var v int64
			if step == 0 {
				v = carry + dk + res[k*nc+c]
			} else {
				s := code[ci]
				v = carry + dk + huffman.Unzigzag(s)*step
				if s == escapeSym {
					v = lits[ci]
				}
				ci += nc
			}
			out[k] = v
			carry = v - dk
		}
	}
}
