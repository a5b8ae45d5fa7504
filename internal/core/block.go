package core

import (
	"errors"
	"fmt"

	"repro/internal/fixed"
	"repro/internal/safedim"
)

// Block describes one (possibly distributed) sub-domain to compress, in
// either dimension. Dims is [NX, NY] or [NX, NY, NZ], fast axis first,
// and there is one component per dimension (u, v[, w]), each in that
// raster order; the zero values of the placement fields describe a
// single-node run.
type Block struct {
	Dims []int
	// Comps holds the own component data; it is not modified.
	Comps [][]float32
	// Prev, when set, enables temporal prediction: each vertex is
	// predicted by the *decompressed* previous frame instead of the
	// spatial Lorenzo stencil — the natural mode for slowly evolving time
	// series (package archive). The decoder must be given the same
	// previous frame (DecompressWithPrev).
	Prev [][]float32
	// Transform is the float↔fixed mapping. It must be identical on every
	// rank of a distributed run (fit it on the global field).
	Transform fixed.Transform
	Opts      Options
	// Origin and Global place the block in the global domain, for SoS
	// consistency across ranks: Origin is its first vertex, Global the
	// global dims. nil means the block is the whole domain.
	Origin, Global []int
	// Neighbor marks which sides adjoin another rank (SideMinX..SideMaxZ;
	// a 2D block has no Z sides).
	Neighbor [6]bool
	// LosslessBorder selects the simple parallelization strategy: every
	// own vertex on a neighbor-facing side is stored losslessly.
	LosslessBorder bool
	// TwoPhase selects the ratio-oriented strategy: ghost layers must be
	// supplied on every neighbor side and compression runs in two phases.
	TwoPhase bool
}

// dimNames names each axis extent in a shape *fixed.DomainError.
var dimNames = [3]string{"nx", "ny", "nz"}

// checkShape validates a block's dims and components — the one input
// check every block entry point shares — and returns its vertex count.
// An extent below two points (no cell) is a *fixed.DomainError naming
// the axis.
func checkShape(dims []int, comps [][]float32) (int, error) {
	if len(dims) == 2 || len(dims) == 3 {
		for a, d := range dims {
			if d < 2 {
				return 0, &fixed.DomainError{Param: dimNames[a], Value: float64(d)}
			}
		}
	}
	n, err := safedim.Field(dims, comps, len(dims))
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	return n, nil
}

// spec validates the block and flattens it into the kernel's
// dimension-erased blockSpec: a 2D block becomes nz = 1 with no Z sides.
func (b *Block) spec() (blockSpec, error) {
	n, err := checkShape(b.Dims, b.Comps)
	if err != nil {
		return blockSpec{}, err
	}
	nd := len(b.Dims)
	if b.Prev != nil {
		if len(b.Prev) != nd {
			return blockSpec{}, fmt.Errorf("core: previous frame has %d components, want %d", len(b.Prev), nd)
		}
		for _, p := range b.Prev {
			if len(p) != n {
				return blockSpec{}, errors.New("core: previous-frame length mismatch")
			}
		}
	}
	if (b.Origin != nil && len(b.Origin) != nd) || (b.Global != nil && len(b.Global) != nd) {
		return blockSpec{}, fmt.Errorf("core: Origin %v and Global %v must have %d entries", b.Origin, b.Global, nd)
	}
	if nd == 2 && (b.Neighbor[SideMinZ] || b.Neighbor[SideMaxZ]) {
		return blockSpec{}, errors.New("core: a 2D block has no Z-side neighbors")
	}
	s := blockSpec{
		ndim: nd, nc: nd,
		transform:    b.Transform,
		opts:         b.Opts,
		neighbor:     b.Neighbor,
		losslessBord: b.LosslessBorder,
		twoPhase:     b.TwoPhase,
	}
	own, origin, global := [3]int{1, 1, 1}, [3]int{}, [3]int{}
	copy(own[:], b.Dims)
	copy(origin[:], b.Origin)
	copy(global[:], b.Global)
	copy(s.comps[:], b.Comps)
	copy(s.prev[:], b.Prev)
	s.nx, s.ny, s.nz = own[0], own[1], own[2]
	s.gx0, s.gy0, s.gz0 = origin[0], origin[1], origin[2]
	s.gnx, s.gny, s.gnz = global[0], global[1], global[2]
	return s, nil
}

// Encoder compresses one block: a thin adapter over the
// dimension-generic kernel. For single-node use call CompressBlock (or
// Compress) instead; the parallel strategies drive the encoder
// phase by phase.
type Encoder struct {
	k *kernel
}

// NewEncoder validates the block and allocates the extended arrays.
// Ghost values (for two-phase blocks) must be supplied with SetGhostPlane
// before Prepare.
func NewEncoder(b Block) (*Encoder, error) {
	s, err := b.spec()
	if err != nil {
		return nil, err
	}
	k, err := newKernel(s)
	if err != nil {
		return nil, err
	}
	return &Encoder{k: k}, nil
}

// CompressBlock compresses b in one pass (raster order, or both phases
// back to back for a two-phase or pieced block) and reports the
// encoder's Stats.
func CompressBlock(b Block) ([]byte, Stats, error) {
	enc, err := NewEncoder(b)
	if err != nil {
		return nil, Stats{}, err
	}
	defer enc.Close()
	enc.Run()
	blob, err := enc.Finish()
	return blob, enc.Stats(), err
}

// SetGhostPlane supplies the fixed-point ghost values for one side, one
// slice per component, laid out fast axis first: X sides are NY×NZ, Y
// sides NX×NZ, Z sides NX×NY (a 2D side is a line, NZ = 1). For two-phase
// blocks the min/max sides carry the neighbors' border values: originals
// before phase 1, decompressed values before phase 2.
func (e *Encoder) SetGhostPlane(side int, vals [][]int64) error {
	return e.k.setGhostPlane(side, vals)
}

// BorderPlane returns the current (decompressed once processed)
// fixed-point values of one own border plane, laid out like
// SetGhostPlane, for the phase exchanges.
func (e *Encoder) BorderPlane(side int) [][]int64 {
	return e.k.borderPlane(side)
}

// Prepare precomputes the critical point map (Algorithm 2 lines 1–3).
// For two-phase blocks all ghost planes must have been set (with the
// neighbors' original values).
func (e *Encoder) Prepare() { e.k.prepare() }

// Run compresses every vertex: in raster order, or both phases
// back-to-back on a two-phase block or a whole-domain block of several
// pieces (swept on every core, with the same bytes on any number).
// Callers that exchange ghosts between the phases of a two-phase block
// must drive RunPhase1/RunPhase2 themselves, but the visit order stays
// consistent with the decoder either way.
func (e *Encoder) Run() { e.k.run() }

// RunPhase1 compresses every vertex except those on neighbor-facing max
// planes (ratio-oriented strategy, first phase), or a pieced block's
// pieces less their seams.
func (e *Encoder) RunPhase1() { e.k.runPhase1() }

// RunPhase2 compresses the remaining max-plane vertices, or a pieced
// block's seams. Ghost planes on the max sides should have been
// refreshed with the neighbors' decompressed borders.
func (e *Encoder) RunPhase2() { e.k.runPhase2() }

// Finish packs the compressed block.
func (e *Encoder) Finish() ([]byte, error) { return e.k.finish() }

// Decompressed returns the reconstructed own block as float32 components
// (available after all phases have run). Useful for in-process
// verification without a decode round trip.
func (e *Encoder) Decompressed() [][]float32 { return e.k.decompressed() }

// Stats reports what the encoder did so far.
func (e *Encoder) Stats() Stats { return e.k.stats }

// Close releases the encoder's pooled working buffers. Call it after the
// last use of the encoder (Finish, Decompressed, BorderPlane); the
// returned blob and any copies remain valid. Close is optional — an
// unclosed encoder is simply garbage collected — but long sweeps that
// skip it forfeit the buffer reuse. Safe to call more than once.
func (e *Encoder) Close() { e.k.close() }
