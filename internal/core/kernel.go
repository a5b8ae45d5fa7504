package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cp"
	"repro/internal/encoder"
	"repro/internal/fixed"
	"repro/internal/flightrec"
	"repro/internal/huffman"
	"repro/internal/predictor"
	"repro/internal/quantizer"
	"repro/internal/safedim"
)

// The dimension-generic compression kernel. Algorithm 2 and the ST1–ST4
// speculation ladder are dimension-independent: only the stencil, the
// adjacent-cell determinant predicates, and the component count differ
// between 2D and 3D. The kernel owns the shared machinery — the vertex
// sweep, Lorenzo/temporal prediction, bound derivation with the
// sign-uniformity relaxation, the speculation state machine with
// rollback, quantize/escape/commit, ghost/border handling, and the
// two-phase protocol — and delegates the per-dimension parts to a small
// dimOps plug (see dims.go). Encoder (block.go) is a thin adapter.
//
// All index arithmetic is shared by treating a 2D block as nz == 1 with
// no Z neighbors: every extended/own index formula, the face/ghost
// indexing, the visit orders, and the Lorenzo predictor then reduce
// bit-exactly to their 2D forms.

// Ghost side indices for the Neighbor arrays and the ghost setters.
const (
	SideMinX = 0
	SideMaxX = 1
	SideMinY = 2
	SideMaxY = 3
	SideMinZ = 4
	SideMaxZ = 5
)

// maxComps is the largest component count (3D fields have u, v, w).
const maxComps = 3

// blockSpec is the dimension-erased description of one block to
// compress. Block.spec validates a Block and flattens it into one; a 2D
// block has nz = 1, nc = 2, and no Z neighbors.
type blockSpec struct {
	ndim, nc      int
	nx, ny, nz    int
	comps         [maxComps][]float32
	prev          [maxComps][]float32
	transform     fixed.Transform
	opts          Options
	gx0, gy0, gz0 int
	gnx, gny, gnz int
	neighbor      [6]bool
	losslessBord  bool
	twoPhase      bool
}

// kernel is one in-flight block compression. It mirrors the lifecycle of
// the public encoders: construct, optionally set ghosts, prepare, run
// (or run phase by phase), finish.
type kernel struct {
	blk      blockSpec
	tau      int64
	ext      [3]int // extended dims (ghost layers included)
	off      [3]int // own-region offset inside the extended arrays
	comps    [maxComps][]int64
	own      [maxComps][]int64
	prev     [maxComps][]int64
	temporal bool
	order    vertexOrder
	valid    []bool
	// signs is the sign plane: one byte per extended vertex, bit 2c set
	// when component c is > 0 and bit 2c+1 when it is < 0 (signBits).
	// It tracks comps at every write: the fixed-point fill, the ghost
	// planes, commit, and each speculation trial and its restore.
	signs     []uint8
	dim       dimOps
	det       cellChecker
	cellValid []bool
	cpCell    []bool
	origType  map[int]cp.Type
	cpAdj     []bool
	// expSyms and codeSyms are the positional symbol streams: the
	// vertex at stream position pos (its place in the visit order) owns
	// expSyms[pos] and codeSyms[pos*nc : pos*nc+nc], so sweepers on
	// different goroutines fill them in any order. literals is the
	// literal stream, rebuilt in visit order by finish.
	expSyms  []uint32
	codeSyms []uint32
	literals []byte
	// swept marks the phases already swept (phaseAll, phaseOne,
	// phaseTwo); resweep is the error a second sweep of one leaves for
	// finish, since its stream positions are already taken.
	swept    [3]bool
	resweep  error
	scr      *kernelScratch
	stats    Stats // the flushed totals of every sweep so far
	tel      engineTel
	prepared bool
	finished bool
}

// newKernel validates the options, allocates the extended arrays, converts
// the own region to fixed point, and binds the per-dimension plug. A
// source value that is non-finite or falls outside the transform's
// fixed-point range (the caller may have built the transform for other
// data) is a *fixed.DomainError.
func newKernel(blk blockSpec) (*kernel, error) {
	if err := blk.opts.Validate(); err != nil {
		return nil, err
	}
	n := blk.nx * blk.ny * blk.nz
	if blk.gnx == 0 {
		blk.gnx, blk.gny, blk.gnz = blk.nx, blk.ny, blk.nz
	}
	if blk.opts.Tau < blk.transform.Resolution() {
		return nil, fmt.Errorf("core: Tau %g is below the fixed-point resolution %g of this field; use lossless storage instead",
			blk.opts.Tau, blk.transform.Resolution())
	}
	k := &kernel{blk: blk, tau: blk.transform.Bound(blk.opts.Tau)}
	k.order = vertexOrder{nx: blk.nx, ny: blk.ny, nz: blk.nz, twoPhase: blk.twoPhase,
		maxPlane: [3]bool{blk.neighbor[SideMaxX], blk.neighbor[SideMaxY], blk.neighbor[SideMaxZ]}}
	if blk.wholeDomain() {
		nSlow, _ := k.order.slow()
		k.order.pieces = pieceCount(n, nSlow)
	}
	k.ext = [3]int{blk.nx, blk.ny, blk.nz}
	if blk.twoPhase {
		for a := 0; a < 3; a++ {
			if blk.neighbor[2*a] {
				k.off[a] = 1
				k.ext[a]++
			}
			if blk.neighbor[2*a+1] {
				k.ext[a]++
			}
		}
	}
	temporal := blk.prev[0] != nil
	// All validation is done: acquire the pooled scratch. From here the
	// kernel owns it until close().
	en := k.ext[0] * k.ext[1] * k.ext[2]
	scr := scratchPool.Get().(*kernelScratch)
	k.scr = scr
	for c := 0; c < blk.nc; c++ {
		scr.comps[c] = grow(scr.comps[c], en)
		scr.own[c] = grow(scr.own[c], n)
		k.comps[c] = scr.comps[c]
		k.own[c] = scr.own[c]
	}
	scr.valid = grow(scr.valid, en)
	scr.signs = grow(scr.signs, en)
	k.valid = scr.valid
	k.signs = scr.signs
	scr.expSyms = resize(scr.expSyms, n)
	scr.codeSyms = resize(scr.codeSyms, blk.nc*n)
	k.expSyms, k.codeSyms = scr.expSyms, scr.codeSyms
	k.literals = scr.literals[:0]
	if temporal {
		for c := 0; c < blk.nc; c++ {
			scr.prev[c] = grow(scr.prev[c], n)
			k.prev[c] = scr.prev[c]
		}
		k.temporal = true
	}
	k.dim = newDimOps(blk.ndim, k.ext, k.comps, k.signs)
	k.tel = newEngineTel(blk.opts, k.dim.name())
	convert := k.tel.stage("fixed-convert")
	err := k.convert()
	convert.End()
	if err != nil {
		k.tel.finish()
		k.close()
		return nil, err
	}
	return k, nil
}

// convert converts the own region (and the previous frame, when temporal)
// to fixed point, checking every value against the transform's range,
// and initialises the own region's sign plane in the same pass.
func (k *kernel) convert() error {
	blk := &k.blk
	if k.temporal {
		for c := 0; c < blk.nc; c++ {
			if err := blk.transform.ToFixedChecked(blk.prev[c], k.prev[c], c, 0); err != nil {
				return err
			}
		}
	}
	for kk := 0; kk < blk.nz; kk++ {
		for j := 0; j < blk.ny; j++ {
			src := (kk*blk.ny + j) * blk.nx
			dst := k.extIdx(0, j, kk)
			signs := k.signs[dst : dst+blk.nx]
			for c := 0; c < blk.nc; c++ {
				row := k.comps[c][dst : dst+blk.nx]
				if err := blk.transform.ToFixedChecked(blk.comps[c][src:src+blk.nx], row, c, src); err != nil {
					return err
				}
				for i, x := range row {
					signs[i] |= signBits(x, c)
				}
			}
			for i := dst; i < dst+blk.nx; i++ {
				k.valid[i] = true
			}
		}
	}
	return nil
}

// signBits is one component's share of a sign-plane byte: bit 2c when
// x > 0, bit 2c+1 when x < 0, nothing for zero. The AND of a cell's
// bytes then keeps a bit exactly when that component is strictly one
// sign at every vertex of the cell (THEORY.md §3).
//
// Branch-free: the sign bit of -x &^ x is set exactly when x > 0 (for
// x = MinInt64, -x wraps to x and the result is 0), and the sign bit of
// x exactly when x < 0.
func signBits(x int64, c int) uint8 {
	pos := uint8(uint64(-x&^x) >> 63)
	neg := uint8(uint64(x) >> 63)
	return (pos | neg<<1) << (2 * c)
}

// signOf recomputes the sign-plane byte of extended vertex v from comps.
func (k *kernel) signOf(v int) uint8 {
	var s uint8
	for c := 0; c < k.blk.nc; c++ {
		s |= signBits(k.comps[c][v], c)
	}
	return s
}

// signDecided reports whether the cell with star entry vs is decided by
// signs alone: some component strictly one sign at all its vertices
// (cp's SignDecided, read from the sign plane). Such a cell contains no
// critical point.
func (k *kernel) signDecided(vs *[4]int) bool {
	return k.signs[vs[0]]&k.signs[vs[1]]&k.signs[vs[2]]&k.signs[vs[3]] != 0
}

// extIdx maps own coordinates to the extended-array vertex index.
func (k *kernel) extIdx(oi, oj, ok int) int {
	return ((ok+k.off[2])*k.ext[1]+(oj+k.off[1]))*k.ext[0] + (oi + k.off[0])
}

// ownIdx maps own coordinates to the own-layout index.
func (k *kernel) ownIdx(oi, oj, ok int) int {
	return (ok*k.blk.ny+oj)*k.blk.nx + oi
}

// faceDims returns the in-face dimensions (d0 fast axis, d1 slow axis) of
// a ghost plane. In 2D the slow axis is degenerate (d1 == 1), so a plane
// is a line.
func (k *kernel) faceDims(side int) (d0, d1 int) {
	switch side {
	case SideMinX, SideMaxX:
		return k.blk.ny, k.blk.nz
	case SideMinY, SideMaxY:
		return k.blk.nx, k.blk.nz
	default:
		return k.blk.nx, k.blk.ny
	}
}

// faceIndex maps in-face coordinates (a fast, b slow) to the extended
// array index of the ghost vertex on the given side.
func (k *kernel) faceIndex(side, a, b int) int {
	var i, j, kk int
	switch side {
	case SideMinX:
		i, j, kk = 0, a+k.off[1], b+k.off[2]
	case SideMaxX:
		i, j, kk = k.ext[0]-1, a+k.off[1], b+k.off[2]
	case SideMinY:
		i, j, kk = a+k.off[0], 0, b+k.off[2]
	case SideMaxY:
		i, j, kk = a+k.off[0], k.ext[1]-1, b+k.off[2]
	case SideMinZ:
		i, j, kk = a+k.off[0], b+k.off[1], 0
	default:
		i, j, kk = a+k.off[0], b+k.off[1], k.ext[2]-1
	}
	return (kk*k.ext[1]+j)*k.ext[0] + i
}

// setGhostPlane supplies the fixed-point ghost values for one side, one
// slice per component, laid out fast-axis first (per faceDims). For
// two-phase blocks the min/max sides carry the neighbors' border values:
// originals before phase 1, decompressed values before phase 2.
func (k *kernel) setGhostPlane(side int, vals [][]int64) error {
	if side < 0 || side >= 2*k.blk.ndim || !k.blk.twoPhase || !k.blk.neighbor[side] {
		return fmt.Errorf("core: no ghost layer on side %d", side)
	}
	d0, d1 := k.faceDims(side)
	if len(vals) != k.blk.nc {
		return errors.New("core: ghost component count mismatch")
	}
	for _, z := range vals {
		if len(z) != d0*d1 {
			return errors.New("core: ghost face length mismatch")
		}
	}
	for b := 0; b < d1; b++ {
		for a := 0; a < d0; a++ {
			idx := k.faceIndex(side, a, b)
			f := b*d0 + a
			for c := 0; c < k.blk.nc; c++ {
				k.comps[c][idx] = vals[c][f]
			}
			k.valid[idx] = true
			k.signs[idx] = k.signOf(idx)
		}
	}
	return nil
}

// borderPlane returns the current (decompressed once processed)
// fixed-point values of one own border plane, one freshly allocated slice
// per component, for the phase exchanges. Unknown sides return nil.
func (k *kernel) borderPlane(side int) [][]int64 {
	if side < 0 || side >= 2*k.blk.ndim {
		return nil
	}
	d0, d1 := k.faceDims(side)
	plane := safedim.MustProduct(d0, d1)
	out := make([][]int64, k.blk.nc)
	for c := range out[:k.blk.nc] {
		out[c] = make([]int64, plane)
	}
	for b := 0; b < d1; b++ {
		for a := 0; a < d0; a++ {
			var i, j, kk int
			switch side {
			case SideMinX:
				i, j, kk = k.off[0], a+k.off[1], b+k.off[2]
			case SideMaxX:
				i, j, kk = k.off[0]+k.blk.nx-1, a+k.off[1], b+k.off[2]
			case SideMinY:
				i, j, kk = a+k.off[0], k.off[1], b+k.off[2]
			case SideMaxY:
				i, j, kk = a+k.off[0], k.off[1]+k.blk.ny-1, b+k.off[2]
			case SideMinZ:
				i, j, kk = a+k.off[0], b+k.off[1], k.off[2]
			default:
				i, j, kk = a+k.off[0], b+k.off[1], k.off[2]+k.blk.nz-1
			}
			idx := (kk*k.ext[1]+j)*k.ext[0] + i
			f := b*d0 + a
			for c := 0; c < k.blk.nc; c++ {
				out[c][f] = k.comps[c][idx]
			}
		}
	}
	return out
}

// prepare precomputes the critical point map (Algorithm 2 lines 1–3).
// For two-phase blocks all ghost planes must have been set (with the
// neighbors' original values).
func (k *kernel) prepare() {
	precompute := k.tel.stage("cp-precompute")
	defer precompute.End()
	gx0 := k.blk.gx0 - k.off[0]
	gy0 := k.blk.gy0 - k.off[1]
	gz0 := k.blk.gz0 - k.off[2]
	gnx, gny := k.blk.gnx, k.blk.gny
	extNX, extNY := k.ext[0], k.ext[1]
	// The SoS identity runs on every exact-predicate tie, so the 2D form
	// skips the plane division (gz0 == 0 there makes the 3D form reduce to
	// it exactly).
	gid := func(v int) int {
		i := v % extNX
		j := (v / extNX) % extNY
		kk := v / (extNX * extNY)
		return ((gz0+kk)*gny+(gy0+j))*gnx + (gx0 + i)
	}
	if k.blk.ndim == 2 {
		gid = func(v int) int {
			i, j := v%extNX, v/extNX
			return (gy0+j)*gnx + (gx0 + i)
		}
	}
	k.det = k.dim.makeDetector(gid)
	nc := k.dim.numCells()
	k.scr.cellValid = grow(k.scr.cellValid, nc)
	k.scr.cpCell = grow(k.scr.cpCell, nc)
	k.cellValid = k.scr.cellValid
	k.cpCell = k.scr.cpCell
	for c := range k.cellValid {
		k.cellValid[c] = true
	}
	// Only a ghost-layered block has invalid vertices (ghost positions
	// no neighbor supplied, such as the diagonal corners and edges of
	// the ghost layers); every cell touching one is invalid.
	if k.blk.twoPhase {
		var cells [maxStar]int
		var verts [maxStar][4]int
		for v, ok := range k.valid {
			if !ok {
				n := k.dim.star(v, &cells, &verts)
				for _, c := range cells[:n] {
					k.cellValid[c] = false
				}
			}
		}
	}
	k.containsBatch()
	if k.blk.opts.Spec == ST4 {
		k.origType = make(map[int]cp.Type)
	}
	// cpAdj marks the own vertices of the few critical-point cells,
	// scattered from those cells rather than gathered over every
	// vertex's star.
	k.scr.cpAdj = grow(k.scr.cpAdj, k.blk.nx*k.blk.ny*k.blk.nz)
	k.cpAdj = k.scr.cpAdj
	var vs [4]int
	for c, hit := range k.cpCell {
		if !hit {
			continue
		}
		if k.origType != nil {
			k.origType[c] = k.det.CellType(c)
		}
		k.dim.cellVertices(c, &vs)
		for _, v := range vs {
			q := v / k.ext[0]
			oi := v - q*k.ext[0] - k.off[0]
			oj := q%k.ext[1] - k.off[1]
			ok := q/k.ext[1] - k.off[2]
			if oi >= 0 && oi < k.blk.nx && oj >= 0 && oj < k.blk.ny && ok >= 0 && ok < k.blk.nz {
				k.cpAdj[k.ownIdx(oi, oj, ok)] = true
			}
		}
	}
	k.prepared = true
}

// run compresses every vertex in raster order (small whole blocks and
// lossless-border blocks). On a two-phase block it runs both phases
// back-to-back — callers that exchange ghosts between the phases must
// drive runPhase1/runPhase2 themselves, but the visit order stays
// consistent with the decoder either way. A whole-domain block of
// several pieces sweeps its pieces, then its seams, in parallel
// (pieces.go).
func (k *kernel) run() {
	if !k.prepared {
		k.prepare()
	}
	if k.order.split() {
		k.runPhase1()
		k.runPhase2()
		return
	}
	if !k.claim(phaseAll) {
		return
	}
	process := k.tel.stage("process")
	k.sweep(phaseAll)
	process.End()
}

// runPhase1 compresses every vertex except those on neighbor-facing max
// planes (ratio-oriented strategy, first phase), or on a pieced block
// every piece but its seam plane.
func (k *kernel) runPhase1() {
	if !k.prepared {
		k.prepare()
	}
	if !k.claim(phaseOne) {
		return
	}
	process := k.tel.stage("process-phase1")
	defer process.End()
	k.sweep(phaseOne)
}

// runPhase2 compresses the remaining max-plane vertices, or a pieced
// block's seams. Ghost planes on the max sides should have been
// refreshed with the neighbors' decompressed borders.
func (k *kernel) runPhase2() {
	if !k.claim(phaseTwo) {
		return
	}
	process := k.tel.stage("process-phase2")
	defer process.End()
	k.sweep(phaseTwo)
}

// claim marks phase as swept and reports whether it was not already. A
// second sweep is refused, and finish reports it.
func (k *kernel) claim(phase int) bool {
	if k.swept[phase] {
		k.resweep = errors.New("core: a phase of the block was swept twice (Run, RunPhase1 or RunPhase2 called again)")
		return false
	}
	k.swept[phase] = true
	return true
}

// forcedLossless reports whether the strategy pins this vertex to zero
// error: neighbor-facing borders in LosslessBorder mode, and vertices on
// two or more neighbor-facing planes (block corners/edges, whose
// derivation would need diagonal ghosts) in two-phase mode.
func (k *kernel) forcedLossless(oi, oj, ok int) bool {
	planes := 0
	o := [3]int{oi, oj, ok}
	lim := [3]int{k.blk.nx - 1, k.blk.ny - 1, k.blk.nz - 1}
	for a := 0; a < 3; a++ {
		if k.blk.neighbor[2*a] && o[a] == 0 {
			planes++
		}
		if k.blk.neighbor[2*a+1] && o[a] == lim[a] {
			planes++
		}
	}
	if k.blk.losslessBord {
		return planes >= 1
	}
	if k.blk.twoPhase {
		return planes >= 2
	}
	return false
}

// processVertex compresses own vertex (oi, oj, ok) and commits it at
// stream position pos.
func (s *sweeper) processVertex(oi, oj, ok, pos int) {
	k := s.k
	vid := k.extIdx(oi, oj, ok)
	own := k.ownIdx(oi, oj, ok)
	spec := k.blk.opts.Spec
	cpA := k.cpAdj[own]

	var sym uint8
	var snapped int64
	switch {
	case k.forcedLossless(oi, oj, ok):
		sym, snapped = quantizer.LosslessSym, 0
	case spec == NoSpec:
		xi := int64(0)
		if !cpA {
			var relaxed bool
			xi, relaxed = s.deriveBound(vid)
			if relaxed {
				s.stats.Relaxed++
			}
		}
		sym, snapped = quantizer.BoundSym(xi, k.tau)
	case spec == ST1:
		sym, snapped = s.speculateST1(oi, oj, ok, vid, cpA)
	case spec == ST2 || spec == ST3:
		sym, snapped = s.speculateFN(oi, oj, ok, vid, cpA)
	default: // ST4
		sym, snapped = s.speculateFull(oi, oj, ok, vid)
	}
	codes, recons, esc := s.tryQuantize(oi, oj, ok, vid, snapped)
	s.commit(vid, own, pos, sym, codes, recons, esc)
}

// deriveBound is Algorithm 2 lines 5–17: the minimum over adjacent cells
// of min(Ψ, τ′), with the sign-uniformity relaxation. Each cell sees the
// running minimum and whether the relaxed flag is still open, so it can
// skip or tighten its Ψ evaluation without changing ξ or the flag (see
// cellBound).
func (s *sweeper) deriveBound(vid int) (xi int64, relaxed bool) {
	k := s.k
	if k.tel.deriveNS != nil {
		defer s.addDeriveSince(time.Now())
	}
	n := k.dim.star(vid, &s.cells, &s.verts)
	xi = k.tau
	orientOnly := k.blk.opts.OrientationOnly
	relax := !k.blk.opts.DisableRelaxation
	for i, c := range s.cells[:n] {
		if !k.cellValid[c] {
			continue
		}
		if k.cpCell[c] {
			return 0, false
		}
		cb, rlx := k.dim.cellBound(vid, &s.verts[i], xi, k.tau, orientOnly, relax, !relaxed, &s.pred)
		relaxed = relaxed || rlx
		xi = min(xi, cb)
	}
	return xi, relaxed
}

// speculateST1 relaxes the derived bound and accepts when the realized
// quantization error still meets the derived bound.
func (s *sweeper) speculateST1(oi, oj, ok, vid int, cpA bool) (uint8, int64) {
	if cpA {
		return quantizer.LosslessSym, 0
	}
	k := s.k
	xi, _ := s.deriveBound(vid)
	if xi <= 0 {
		return quantizer.LosslessSym, 0
	}
	nl := k.blk.opts.Spec.retries()
	// Relax the bound, capped at max(τ′, ξ): ST1 recovers the precision
	// lost when the derived bound is floor-snapped onto the exponent
	// grid, and never discards a relaxation-derived ξ above τ′; pushing
	// past both is left to the FN-level targets.
	try := xi << uint(nl)
	limit := k.tau
	if xi > limit {
		limit = xi
	}
	if try > limit {
		try = limit
	}
	fails := 0
	for {
		s.stats.SpecTrials++
		sym, snapped := quantizer.BoundSym(try, k.tau)
		_, recons, _ := s.tryQuantize(oi, oj, ok, vid, snapped)
		within := true
		for c := 0; c < k.blk.nc; c++ {
			if absDiff(recons[c], k.comps[c][vid]) > xi {
				within = false
				break
			}
		}
		if within {
			return sym, snapped
		}
		s.stats.SpecFails++
		fails++
		if fails == 1 {
			k.recordRollback(vid)
		}
		if fails > nl {
			return s.specCutoff(vid)
		}
		try >>= 1
		if try <= 0 {
			return s.specCutoff(vid)
		}
	}
}

// speculateFN (ST2/ST3) skips derivation: it compresses with a relaxed
// bound and verifies that no adjacent cell gains a critical point.
func (s *sweeper) speculateFN(oi, oj, ok, vid int, cpA bool) (uint8, int64) {
	if cpA {
		return quantizer.LosslessSym, 0
	}
	return s.speculateVerify(oi, oj, ok, vid, false)
}

// speculateFull (ST4) verifies detection result and critical point type on
// every adjacent cell, including cells that contain critical points.
func (s *sweeper) speculateFull(oi, oj, ok, vid int) (uint8, int64) {
	return s.speculateVerify(oi, oj, ok, vid, true)
}

// cellKeeps is the speculation target on one adjacent cell, with the
// trial value in place: no critical point appears (ST2/ST3), or, with
// full, the detection result and critical-point type are both unchanged
// (ST4). Sign-decided cells never reach the predicate.
func (s *sweeper) cellKeeps(c int, vs *[4]int, full bool) bool {
	k := s.k
	has := !k.signDecided(vs) && k.det.ContainsVertices(vs, &s.pred)
	if !full {
		return !has
	}
	if has != k.cpCell[c] {
		return false
	}
	return !has || k.det.CellType(c) == k.origType[c]
}

// speculateVerify is the trial loop of Fig. 2: relax, compress, verify the
// target (cellKeeps) on the adjacent cells with the candidate
// reconstruction in place, restrict on failure, and hard cut-off to
// lossless after n_l failures.
func (s *sweeper) speculateVerify(oi, oj, ok, vid int, full bool) (uint8, int64) {
	k := s.k
	nl := k.blk.opts.Spec.retries()
	try := k.tau << uint(nl)
	fails := 0
	var orig [maxComps]int64
	for c := 0; c < k.blk.nc; c++ {
		orig[c] = k.comps[c][vid]
	}
	origSign := k.signs[vid]
	n := k.dim.star(vid, &s.cells, &s.verts)
	for {
		s.stats.SpecTrials++
		sym, snapped := quantizer.BoundSym(try, k.tau)
		_, recons, _ := s.tryQuantize(oi, oj, ok, vid, snapped)
		for c := 0; c < k.blk.nc; c++ {
			k.comps[c][vid] = recons[c]
		}
		k.signs[vid] = k.signOf(vid)
		okAll := true
		for i, c := range s.cells[:n] {
			if k.cellValid[c] && !s.cellKeeps(c, &s.verts[i], full) {
				okAll = false
				break
			}
		}
		for c := 0; c < k.blk.nc; c++ {
			k.comps[c][vid] = orig[c]
		}
		k.signs[vid] = origSign
		if okAll {
			return sym, snapped
		}
		s.stats.SpecFails++
		fails++
		if fails == 1 {
			k.recordRollback(vid)
		}
		if fails > nl {
			return s.specCutoff(vid)
		}
		try >>= 1
		if try <= 0 {
			return s.specCutoff(vid)
		}
	}
}

// recordRollback flight-records the first rejected speculation trial of a
// vertex (Code = vertex id). Later restrictions of the same vertex are
// expected behavior and stay off the ring.
func (k *kernel) recordRollback(vid int) {
	k.blk.opts.Rec.Record(flightrec.Event{Kind: flightrec.KindRollback, Subsystem: "core",
		Slab: int32(k.blk.opts.RecSlab), Code: int64(vid),
		Detail: "speculation trial rejected"})
}

// specCutoff records the hard cut-off to lossless storage after
// speculation exhausts its retry budget (n_l failures or a trial bound
// shrunk to zero).
func (s *sweeper) specCutoff(vid int) (uint8, int64) {
	s.stats.SpecCutoffs++
	s.k.blk.opts.Rec.Record(flightrec.Event{Kind: flightrec.KindRollback, Subsystem: "core",
		Slab: int32(s.k.blk.opts.RecSlab), Code: int64(vid),
		Detail: "speculation cut off to lossless"})
	return quantizer.LosslessSym, 0
}

// tryQuantize quantizes every component of the vertex against the snapped
// bound without committing anything.
func (s *sweeper) tryQuantize(oi, oj, ok, vid int, snapped int64) (codes, recons [maxComps]int64, esc [maxComps]bool) {
	k := s.k
	own := k.ownIdx(oi, oj, ok)
	for c := 0; c < k.blk.nc; c++ {
		var pred int64
		if k.temporal {
			pred = k.prev[c][own]
		} else {
			pred = predictor.Lorenzo(k.own[c], k.blk.nx, k.blk.ny, oi, oj, ok, s.lo)
		}
		code, recon, qok := quantizer.Quantize(k.comps[c][vid], pred, snapped)
		if !qok {
			esc[c] = true
			recons[c] = k.comps[c][vid]
		} else {
			codes[c] = code
			recons[c] = recon
		}
	}
	return codes, recons, esc
}

// commit emits the vertex's symbols at stream position pos and
// overwrites the working arrays with the decompressed values (Algorithm 2
// lines 18–22). An escaped component's decompressed value is its exact
// value, so own keeps what finish writes to the literal stream.
func (s *sweeper) commit(vid, own, pos int, sym uint8, codes, recons [maxComps]int64, esc [maxComps]bool) {
	k := s.k
	s.stats.Vertices++
	s.bounds[sym]++
	if sym == quantizer.LosslessSym {
		s.stats.Lossless++
	}
	k.expSyms[pos] = uint32(sym)
	nc := k.blk.nc
	for c := 0; c < nc; c++ {
		if esc[c] {
			s.stats.Literals++
			k.codeSyms[pos*nc+c] = escapeSym
		} else {
			k.codeSyms[pos*nc+c] = huffman.Zigzag(codes[c])
		}
		k.comps[c][vid] = recons[c]
		k.own[c][own] = recons[c]
	}
	k.signs[vid] = k.signOf(vid)
}

// finish packs the compressed block.
func (k *kernel) finish() ([]byte, error) {
	if k.finished {
		return nil, errors.New("core: Finish called twice")
	}
	if k.resweep != nil {
		return nil, k.resweep
	}
	// The streams are positional: a vertex never committed would leave a
	// slot that decodes silently as a zero code.
	if n := k.blk.nx * k.blk.ny * k.blk.nz; k.stats.Vertices < n {
		return nil, fmt.Errorf("core: Finish after %d of %d vertices: the sweep (Run, or both phases) is incomplete",
			k.stats.Vertices, n)
	}
	k.finished = true
	h := header{
		NDim:  k.blk.ndim,
		NX:    k.blk.nx,
		NY:    k.blk.ny,
		Shift: k.blk.transform.Shift,
		Tau:   k.tau,
		Spec:  k.blk.opts.Spec,
		Order: orderRaster,
	}
	if k.blk.ndim == 3 {
		h.NZ = k.blk.nz
	}
	if k.blk.twoPhase {
		h.Order = orderTwoPhase
	}
	if k.order.pieces > 1 {
		h.Order, h.Pieces = orderPieces, k.order.pieces
	}
	h.HasGhost = k.blk.neighbor
	h.Border = k.blk.losslessBord
	h.Temporal = k.temporal
	entropy := k.tel.stage("entropy-code")
	k.literals = k.literalStream()
	expStream := huffman.Compress(k.expSyms)
	codeStream := huffman.Compress(k.codeSyms)
	h.HasCRC = true
	h.PayloadCRC = h.payloadChecksum(expStream, codeStream, k.literals)
	blob, err := encoder.Pack(h.marshal(), expStream, codeStream, k.literals)
	entropy.End()
	k.tel.finish()
	return blob, err
}

// literalStream rebuilds the literal stream: the exact value of every
// escaped component, in visit order and per vertex in component order. It
// replays the visit order's runs, which carry the stream positions.
func (k *kernel) literalStream() []byte {
	lits := k.literals[:0]
	if k.stats.Literals == 0 {
		return lits
	}
	nc := k.blk.nc
	_ = k.order.allRuns(func(r orderRun) error {
		own := k.ownIdx(r.i0, r.oj, r.ok)
		for pos := r.pos; pos < r.pos+r.i1-r.i0; pos, own = pos+1, own+1 {
			for c, sym := range k.codeSyms[pos*nc : pos*nc+nc] {
				if sym == escapeSym {
					lits = appendLiteral(lits, k.own[c][own])
				}
			}
		}
		return nil
	})
	return lits
}

// decompressed returns the reconstructed own block as float32 components
// (available after all phases have run). Useful for in-process
// verification without a decode round trip.
func (k *kernel) decompressed() [][]float32 {
	n := safedim.MustProduct(k.blk.nx, k.blk.ny, k.blk.nz)
	out := make([][]float32, k.blk.nc)
	for c := 0; c < k.blk.nc; c++ {
		out[c] = make([]float32, n)
		k.blk.transform.ToFloat(k.own[c], out[c])
	}
	return out
}
