package core

import (
	"time"

	"repro/internal/exact/filter"
	"repro/internal/pool"
)

// Pieces: Algorithm 2 derives each vertex's bound from the decompressed
// values of the vertices visited before it, so its sweep is sequential.
// The ratio-oriented decomposition (Sec. V-A, Fig. 4) runs it on several
// workers, and a whole-domain block uses it inside itself: the block is
// cut into k pieces along its slowest axis (rows in 2D, planes in 3D).
// Phase 1 sweeps every piece but its top plane, one piece per task;
// phase 2 sweeps the k−1 seams (each inner piece's top plane), one seam
// per task. Every read and write of one vertex — its Freudenthal star,
// the Lorenzo stencil, the speculation trials — stays within one plane
// of it, so with two planes or more per piece:
//
//   - no cell holds vertices of two pieces unless it holds a seam vertex;
//   - a phase-1 vertex reads a seam only as its original value, and no
//     vertex writes what another piece's phase-1 sweep reads;
//   - a seam vertex goes last, against final values on both sides.
//
// These are Algorithm 2's invariants under a different visit order, so
// the guarantee holds. The first plane of each piece predicts as a
// domain's first plane does, since its lower neighbor is a seam visited
// later (vertexOrder's lo). The visit order fixes every stream
// position, so the bytes equal those of a serial sweep in that order on
// any number of cores.

// minPieceVertices is one piece's share of a whole-domain block: the
// block is cut into one piece per this many vertices. Timed on a 2-vCPU
// Linux container as the median CompressBlock under GOMAXPROCS 2
// (τ = 1% of the range), piece sizes alternating in one process
// (results/piece_sweep.txt). Pieces of 4–64 Ki vertices compressed the
// large fields at about the same speed: Ocean 768×576 NoSpec 94–97 ms
// against 139 on one piece, Nek 48³ ST4 61–65 against 94, Hurricane
// 64×64×96 NoSpec 233–258 against 440; Nek 32³ ST4 took 26 ms as 2
// pieces of 16 Ki against 42 as one. Ocean 128² ST1 gained at 8 Ki
// pieces (6.5 against 7.4–9.6 ms) and lost 0.6% ratio; 16 Ki keeps it,
// the daemon's body, one piece. The ratio rises with the piece count
// on speculative runs (Nek 48³ ST4 17.2 / 18.5 / 21.5 at 1 / 6 / 24
// pieces): the raster sweep's code entropy grows along the slow axis,
// and each piece's first plane restarts it.
const minPieceVertices = 1 << 14

// pieceCount is the number of pieces of a whole-domain block of n
// vertices and nSlow slow-axis planes: one per minPieceVertices
// vertices, at most nSlow/2 so that every piece holds two planes and no
// two seams touch. It depends on the shape only, never on the host.
func pieceCount(n, nSlow int) int {
	return max(1, min(n/minPieceVertices, nSlow/2))
}

// wholeDomain reports whether the block is a whole field: zero origin,
// global dims equal to its own, no neighbor and neither border strategy.
func (b *blockSpec) wholeDomain() bool {
	return b.gx0 == 0 && b.gy0 == 0 && b.gz0 == 0 &&
		b.gnx == b.nx && b.gny == b.ny && (b.ndim == 2 || b.gnz == b.nz) &&
		b.neighbor == [6]bool{} && !b.losslessBord && !b.twoPhase
}

// sweeper is the state of one task's share of a sweep: the star
// buffers, the lo of the run it is in, and the counts it batches until
// the phase ends — Stats, the filter counters, derive time and the
// bound-symbol histogram. Shared atomics per vertex would contend
// between goroutines.
type sweeper struct {
	k        *kernel
	lo       int
	cells    [maxStar]int
	verts    [maxStar][4]int
	stats    Stats
	pred     filter.Local
	deriveNS int64
	bounds   [256]int64 // commits per bound symbol
}

// sweepers returns n zeroed sweepers of the kernel, reusing the
// scratch's.
func (k *kernel) sweepers(n int) []*sweeper {
	scr := k.scr
	for len(scr.sweepers) < n {
		scr.sweepers = append(scr.sweepers, new(sweeper))
	}
	sw := scr.sweepers[:n]
	for _, s := range sw {
		*s = sweeper{k: k}
	}
	return sw
}

func (s *sweeper) addDeriveSince(t0 time.Time) { s.deriveNS += int64(time.Since(t0)) }

// flush publishes the sweeper's batched counts to the kernel's Stats,
// its telemetry and the process-wide filter counters.
func (s *sweeper) flush() {
	k, st := s.k, s.stats
	k.stats.Add(st)
	t := &k.tel
	t.vertices.Add(int64(st.Vertices))
	t.lossless.Add(int64(st.Lossless))
	t.relaxed.Add(int64(st.Relaxed))
	t.specTrials.Add(int64(st.SpecTrials))
	t.specFails.Add(int64(st.SpecFails))
	t.specCutoffs.Add(int64(st.SpecCutoffs))
	t.literals.Add(int64(st.Literals))
	t.deriveNS.Add(s.deriveNS)
	for sym, n := range s.bounds {
		t.boundExp.ObserveN(int64(sym), n)
	}
	s.pred.Flush()
}

// pieceHook, when set (by tests), runs as a task of a sweep starts.
var pieceHook func(phase, task int)

// sweep compresses one phase's vertices, its tasks in parallel, each
// task's runs in order at their stream positions. A panic in a task
// comes back to the caller after the join (pool.Do).
func (k *kernel) sweep(phase int) {
	n := k.order.tasks(phase)
	sw := k.sweepers(n)
	defer func() {
		for _, s := range sw {
			s.flush()
		}
	}()
	pool.Do(pool.Workers(0), n, func(t int) {
		if pieceHook != nil {
			pieceHook(phase, t)
		}
		s := sw[t]
		_ = k.order.runs(phase, t, func(r orderRun) error {
			s.lo = r.lo
			for oi, pos := r.i0, r.pos; oi < r.i1; oi, pos = oi+1, pos+1 {
				s.processVertex(oi, r.oj, r.ok, pos)
			}
			return nil
		})
	})
}

// containsBatch evaluates the containment predicate of every valid cell
// into cpCell (Algorithm 2 line 2), the cell rows cut into one stripe
// per piece, each counting into its own filter.Local; every cell is
// written by position, so the map does not depend on the split.
func (k *kernel) containsBatch() {
	rows, n := k.det.CellRows(), k.order.tasks(phaseOne)
	pool.Do(pool.Workers(0), n, func(i int) {
		var loc filter.Local
		k.det.ContainsRows(k.cellValid, k.cpCell, i*rows/n, (i+1)*rows/n, &loc)
		loc.Flush()
	})
}
