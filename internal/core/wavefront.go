package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exact/filter"
)

// The slice wavefront: Algorithm 2 derives each vertex's bound from the
// decompressed values of the vertices visited before it, so the raster
// sweep looks sequential. But every read and write of one vertex — its
// Freudenthal star, the Lorenzo stencil, the speculation trials — stays
// at offsets {0,1}ᵈ ∪ {−1,0}ᵈ. Cut the block into slices along the
// slowest axis (rows in 2D, planes in 3D) and number each slice's
// vertices in raster order: vertex p of slice s touches indices ≤ p of
// slice s−1, which the raster sweep has committed before it, and indices
// ≥ p of slice s+1, which it has not. Slice s may therefore process p as
// soon as slice s−1 has processed p+1 vertices, and it sees exactly the
// values the raster sweep would: the output is the same byte for byte,
// on any number of goroutines.
//
// Only a whole-domain block fans out. A piece of a decomposed field (a
// slab, a rank, a two-phase block) keeps to its caller's goroutine, since
// its caller already runs the pieces in parallel.

// The constants below were timed on a 2-vCPU Linux container, as the
// median whole-domain CompressBlock (τ = 1% of the range) under
// GOMAXPROCS 2 against GOMAXPROCS 1, the configurations alternating in
// one process.
const (
	// sliceLag is how many vertices beyond its star's need a slice
	// stays behind the slice below, so the two do not write the same
	// cache lines. Ocean 768×576 NoSpec: 144–146 ms on one goroutine;
	// on two, 132 / 125 / 122 / 127 / 115–121 / 124 / 142 ms at a lag
	// of 0 / 1 / 8 / 32 / 64 / 128 / 256. Nek 48³ ST4: 116 ms on one;
	// 80 / 77 / 77 / 75 ms at 0 / 1 / 8 / 64.
	sliceLag = 64
	// minSliceLen is the shortest slice that fans out. Two slices
	// overlap on a slice's length less the lag, and on short slices the
	// waits cost more than the overlap gains. Ocean with rows of 96 /
	// 128 / 160 / 192 vertices (256 and 384 rows) ran 1.23–1.36 /
	// 1.12–1.30 / 0.94–0.98 / 0.95–1.02× the one-goroutine time; Nek
	// with planes of 10² / 12² / 14² vertices 1.01–1.03 / 0.87–0.91 /
	// 0.75×. The vertex count alone does not decide: a 12³ Nek field
	// gains. The bound is where 2D breaks even; it gives up the 3D gain
	// on planes of 144–191 vertices.
	minSliceLen = 3 * sliceLag
	// spinPolls is how often a waiting slice polls with runtime.Gosched
	// before it sleeps between polls. A wait on a free core ends within
	// a few polls; on a host with fewer free cores than goroutines the
	// sleep hands the core to the slice it waits on instead of spinning
	// against it.
	spinPolls = 64
)

// sweeper is the state of one goroutine's share of a sweep: the star
// buffers, and the counts it batches until the sweep (or phase) ends —
// Stats, the filter counters, derive time and the bound-symbol
// histogram. Shared atomics per vertex would contend between goroutines.
type sweeper struct {
	k        *kernel
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

// wholeDomain reports whether the block is a whole field: zero origin,
// global dims equal to its own, no neighbor and neither border strategy.
func (k *kernel) wholeDomain() bool {
	b := &k.blk
	return b.gx0 == 0 && b.gy0 == 0 && b.gz0 == 0 &&
		b.gnx == b.nx && b.gny == b.ny && (b.ndim == 2 || b.gnz == b.nz) &&
		b.neighbor == [6]bool{} && !b.losslessBord && !b.twoPhase
}

// width is the number of goroutines the block's sweep and its
// containment precompute use: up to GOMAXPROCS for a whole domain whose
// slices hold at least minSliceLen vertices, else 1.
func (k *kernel) width() int {
	n, length := k.slices()
	if !k.wholeDomain() || length < minSliceLen {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), n)
}

// slices returns the number of slowest-axis slices and their length.
func (k *kernel) slices() (n, length int) {
	if k.blk.ndim == 2 {
		return k.blk.ny, k.blk.nx
	}
	return k.blk.nz, k.blk.nx * k.blk.ny
}

// progress is one slice's count of processed vertices, alone on its
// cache line.
type progress struct {
	n atomic.Int64
	_ [56]byte
}

// sliceHook, when set (by tests), runs as a worker takes a slice.
var sliceHook func(worker, slice int)

// wavefront sweeps a whole-domain block on width goroutines. Slices are
// handed out in order from an atomic counter, so the lowest slice in
// progress never waits and the sweep always advances.
func (k *kernel) wavefront(width int) {
	nSlices, length := k.slices()
	k.scr.slices = grow(k.scr.slices, nSlices)
	prog := k.scr.slices
	sw := k.sweepers(width)
	defer func() {
		for _, s := range sw {
			s.flush()
		}
	}()
	var next atomic.Int64
	fanOut(width, func(w int, abort *atomic.Bool) {
		for !abort.Load() {
			sl := int(next.Add(1)) - 1
			if sl >= nSlices {
				return
			}
			if sliceHook != nil {
				sliceHook(w, sl)
			}
			var below *atomic.Int64
			if sl > 0 {
				below = &prog[sl-1].n
			}
			if !k.sweepSlice(sw[w], sl, length, below, &prog[sl].n, abort) {
				return
			}
		}
	})
}

// sweepSlice processes slice sl in raster order, at stream positions
// equal to the own indices, and publishes its progress after every
// vertex. Before in-slice index p it waits until the slice below (nil
// for slice 0) has processed p+1+sliceLag vertices, or all of them. It
// returns false if abort was raised while it waited.
func (k *kernel) sweepSlice(s *sweeper, sl, length int, below, mine *atomic.Int64, abort *atomic.Bool) bool {
	nx, ny := k.blk.nx, k.blk.ny
	seen := int64(length)
	if below != nil {
		seen = below.Load()
	}
	for p := 0; p < length; p++ {
		for need, polls := int64(min(p+1+sliceLag, length)), 0; seen < need; polls++ {
			if abort.Load() {
				return false
			}
			if polls < spinPolls {
				runtime.Gosched()
			} else {
				time.Sleep(time.Microsecond)
			}
			seen = below.Load()
		}
		own := sl*length + p
		s.processVertex(own%nx, own/nx%ny, own/(nx*ny), own)
		mine.Store(int64(p + 1))
	}
	return true
}

// fanOut runs work(0) on the caller and work(1..width−1) on helper
// goroutines, and returns when all have. A panic in any of them raises
// abort, which work polls wherever it waits on another worker, and is
// raised again on the caller after the join, so a recover around the
// caller (shm's per-slab barrier) sees it.
func fanOut(width int, work func(w int, abort *atomic.Bool)) {
	var abort atomic.Bool
	if width == 1 {
		work(0, &abort)
		return
	}
	var once sync.Once
	var failure any
	run := func(w int) {
		defer func() {
			if r := recover(); r != nil {
				once.Do(func() { failure = r })
				abort.Store(true)
			}
		}()
		work(w, &abort)
	}
	var wg sync.WaitGroup
	wg.Add(width - 1)
	for w := 1; w < width; w++ {
		go func(w int) {
			defer wg.Done()
			run(w)
		}(w)
	}
	run(0)
	wg.Wait()
	if failure != nil {
		panic(failure)
	}
}

// containsBatch evaluates the containment predicate of every valid cell
// into cpCell (Algorithm 2 line 2). On a block that fans out, the cell
// rows are cut into one stripe per goroutine, each counting into its own
// filter.Local; every cell is written by position, so the map does not
// depend on the split.
func (k *kernel) containsBatch() {
	rows, w := k.det.CellRows(), k.width()
	fanOut(w, func(i int, _ *atomic.Bool) {
		var loc filter.Local
		k.det.ContainsRows(k.cellValid, k.cpCell, i*rows/w, (i+1)*rows/w, &loc)
		loc.Flush()
	})
}
