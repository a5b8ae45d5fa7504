// The out-of-core streaming engine: slabs are pulled through a bounded
// admission window from a field.SlabSource, compressed on the worker
// pool, and flushed in slab order to an archive.StreamWriter — peak
// memory is O(window × slab), never O(field), and the output bytes are
// identical to the in-memory path for any worker count and any window.
//
// Slabs meet at two-phase seams (parallel.PhaseOne/PhaseTwo, the
// ratio-oriented strategy of Fig. 4). Phase 1 of slab i reads one
// original ghost plane per inner side from the source and compresses
// all but its max plane; it hands its decompressed min plane to slab
// i-1. Slab i's max plane is compressed in phase 2, against slab i+1's
// decompressed min plane. Whichever of slabs i and i+1 finishes phase 1
// second runs slab i's phase 2, so no worker waits on a neighbor:
//
//	worker: acquire window permit → take next slab index → read slab
//	        and ghosts from source → phase 1 (degrading once to
//	        lossless on a panic or error) → hand the min plane to seam
//	        i-1, completing slab i-1 if it is parked there → park slab
//	        i at seam i, or complete it if slab i+1 already handed over
//	        (the last slab completes at once) → hand the sealed blob to
//	        the flusher
//	flusher (caller's goroutine): for each slab in order: await its
//	        blob → append to the stream writer → drop the blob →
//	        release the permit
//
// Deadlock freedom: permits are acquired before a slab index is taken,
// so admitted slabs form a prefix-contiguous set, and the window holds
// at least two slabs. The flusher's lowest unflushed slab f is admitted
// and so is f+1; phase 1 never blocks, so both finish it, and then slab
// f completes. Per-slab hand-off channels are buffered, so no worker
// blocks on the flusher. The first slab error cancels the run context,
// so workers stop at their next admission, the flusher stops waiting
// for slabs that will never complete, and slabs still parked at a seam
// release their encoders when the run ends.

package shm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/flightrec"
	"repro/internal/integrity"
	"repro/internal/parallel"
	"repro/internal/pool"
	"repro/internal/safedim"
	"repro/internal/telemetry"
)

// slabScratch is one worker's reusable buffers: the raw planes of its
// current slab (ghost planes included) and their fixed-point ghosts,
// grown to the largest slab the worker has seen — the engine's raw
// memory is O(workers × slab). An encoder keeps its own fixed-point
// copy, so the buffers are free again once phase 1 has started.
type slabScratch struct {
	comps [][]float32
	ghost [2][][]int64
}

// buffers returns nc component buffers of n points each, reusing prior
// allocations.
func (sc *slabScratch) buffers(nc, n int) [][]float32 {
	for len(sc.comps) < nc {
		sc.comps = append(sc.comps, nil)
	}
	out := make([][]float32, nc)
	for c := 0; c < nc; c++ {
		if cap(sc.comps[c]) < n {
			sc.comps[c] = make([]float32, n)
		}
		out[c] = sc.comps[c][:n]
	}
	return out
}

// windowOf clamps the configured window to [1, slabs]; <= 0 means
// unbounded (every slab admitted at once — the legacy in-memory
// behavior).
func (o Options) windowOf(slabs int) int {
	w := o.Window
	if w <= 0 || w > slabs {
		w = slabs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// slabState is one admitted slab from its phase 1 to its outcome.
type slabState struct {
	i int
	// nb marks the slab's neighbor sides: the slab axis's min side
	// unless it is the first slab, its max side unless it is the last.
	nb [6]bool
	// enc is the slab's encoder while it is parked at seam i, waiting
	// for slab i+1's decompressed min plane; nil once the slab is
	// complete.
	enc *core.Encoder
	// hand is the min plane handed to slab i-1: decompressed after
	// phase 1, exact when the slab degraded first. nil for slab 0.
	hand [][]int64
	// raw is the slab's share of the window before it seals.
	raw int64
	out slabOutcome
}

// seam joins slab i (left) and slab i+1 (right). Whichever of the two
// arrives second, at the end of its phase 1, completes slab i.
type seam struct {
	mu    sync.Mutex
	left  *slabState
	right [][]int64
}

// arriveLeft parks slab i, or returns slab i+1's plane when it is
// already here and the caller completes slab i.
func (s *seam) arriveLeft(st *slabState) [][]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.right != nil {
		return s.right
	}
	s.left = st
	return nil
}

// arriveRight leaves slab i+1's plane, and returns slab i when it is
// parked here and the caller completes it.
func (s *seam) arriveRight(plane [][]int64) *slabState {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.right = plane
	st := s.left
	s.left = nil
	return st
}

// slabSeams is slab i's side of the exchange: phase-1 ghosts read from
// the source, the min plane it hands over, and slab i+1's plane for
// phase 2.
type slabSeams struct {
	ghost [6][][]int64
	hand  [][]int64
	next  [][]int64
}

func (t *slabSeams) Original(side int) ([][]int64, error) { return t.ghost[side], nil }

func (t *slabSeams) Hand(_ int, plane [][]int64) error {
	t.hand = plane
	return nil
}

func (t *slabSeams) Decompressed(int) ([][]int64, error) { return t.next, nil }

// compressRun is one CompressStream call: its decomposition and the
// state its workers and flusher share.
type compressRun struct {
	name   string
	src    field.SlabSource
	dims   []int
	plane  int // vertices per slow-axis plane
	spans  []parallel.Span
	tr     fixed.Transform
	opts   core.Options
	po     Options
	tspans []*telemetry.Span
	seams  []seam
	outCh  []chan slabOutcome
	// errs holds each slab's error, read once every worker has left:
	// a stopped run reports the lowest-indexed one.
	errs      []error
	ctx       context.Context
	stop      context.CancelCauseFunc
	cur, peak atomic.Int64
}

// side returns the min and max side indices of the slab axis.
func (r *compressRun) side() (lo, hi int) {
	a := len(r.dims) - 1
	return 2 * a, 2*a + 1
}

// slabBytes is the raw float32 size of planes planes.
func (r *compressRun) slabBytes(planes int) int64 {
	return int64(r.plane) * int64(planes) * int64(len(r.dims)) * 4
}

func (r *compressRun) addWindowBytes(d int64) {
	v := r.cur.Add(d)
	for {
		p := r.peak.Load()
		if v <= p || r.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// globalIndex re-bases a slab-local value error onto the field, so the
// caller is told where in its input the value sits.
func (r *compressRun) globalIndex(i int, err error) error {
	var de *fixed.DomainError
	if errors.As(err, &de) && de.Param == "" {
		de.Index += r.spans[i].Start * r.plane
	}
	return err
}

// attempt runs one step of slab i's encode under a recover barrier.
func attempt(i int, f func() error) (panicked bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			panicked, err = true, fmt.Errorf("shm: slab %d panicked: %v", i, p)
		}
	}()
	return false, f()
}

// phaseOne reads slab i with one original ghost plane per inner side
// and runs its phase 1. It returns the slab parked for phase 2, or
// complete: a lone slab compresses whole, the last slab has no phase-2
// neighbor, and a failed slab degrades.
func (r *compressRun) phaseOne(i int, sc *slabScratch) *slabState {
	sp := r.spans[i]
	slabs := len(r.spans)
	nd := len(r.dims)
	lo, hi := r.side()
	st := &slabState{i: i}
	nb := &st.nb
	nb[lo], nb[hi] = i > 0, i < slabs-1
	first, planes := sp.Start, sp.Size
	if nb[lo] {
		first--
		planes++
	}
	if nb[hi] {
		planes++
	}
	st.raw = r.slabBytes(planes)
	r.addWindowBytes(st.raw)
	panicked, err := attempt(i, func() error {
		r.po.Faults.MaybePanic("shm.slab", uint64(i))
		bufs := sc.buffers(nd, r.plane*planes)
		if err := r.src.ReadPlanes(first, planes, bufs); err != nil {
			return err
		}
		off := 0
		if nb[lo] {
			off = r.plane
		}
		own := make([][]float32, nd)
		for c := range own {
			own[c] = bufs[c][off : off+r.plane*sp.Size]
		}
		o := r.opts
		o.Tel, o.TelSpan = r.po.Tel, r.tspans[i]
		o.Rec, o.RecSlab = r.po.Rec, i
		origin := make([]int, nd)
		origin[nd-1] = sp.Start
		blk := core.Block{
			Dims: append(slices.Clone(r.dims[:nd-1]), sp.Size), Comps: own,
			Transform: r.tr, Opts: o, Origin: origin, Global: r.dims,
			Neighbor: *nb, TwoPhase: slabs > 1,
		}
		if slabs == 1 {
			// A lone slab is the whole domain: exactly the single-node
			// block.
			blob, stats, err := core.CompressBlock(blk)
			st.out.blob, st.out.stats = blob, stats
			return r.globalIndex(i, err)
		}
		enc, err := core.NewEncoder(blk)
		if err != nil {
			return r.globalIndex(i, err)
		}
		st.enc = enc
		t := &slabSeams{}
		for g, s := range [2]int{lo, hi} {
			if !nb[s] {
				continue
			}
			at := first // the min ghost leads the buffers
			if s == hi {
				at = sp.Start + sp.Size
			}
			t.ghost[s] = sc.ghostPlane(g, nd, r.plane)
			for c := range t.ghost[s] {
				src := bufs[c][(at-first)*r.plane : (at-first+1)*r.plane]
				if err := r.tr.ToFixedChecked(src, t.ghost[s][c], c, at*r.plane); err != nil {
					return err
				}
			}
		}
		if err := parallel.PhaseOne(enc, *nb, t, nil); err != nil {
			return err
		}
		st.hand = t.hand
		if !nb[hi] {
			return r.seal(st, t)
		}
		return nil
	})
	if err != nil {
		st.closeEncoder()
		st.hand = nil
		r.degrade(st, panicked, err, sc)
	}
	return st
}

// closeEncoder releases the slab's encoder, if it still holds one.
func (st *slabState) closeEncoder() {
	if st.enc != nil {
		st.enc.Close()
		st.enc = nil
	}
}

// ghostPlane returns ghost buffer g (0: min side, 1: max side) sized to
// one plane of nc components.
func (sc *slabScratch) ghostPlane(g, nc, n int) [][]int64 {
	for len(sc.ghost[g]) < nc {
		sc.ghost[g] = append(sc.ghost[g], nil)
	}
	for c := 0; c < nc; c++ {
		if cap(sc.ghost[g][c]) < n {
			sc.ghost[g][c] = make([]int64, n)
		}
		sc.ghost[g][c] = sc.ghost[g][c][:n]
	}
	return sc.ghost[g][:nc]
}

// seal runs slab st's phase 2 against t's phase-2 ghost and closes its
// encoder.
func (r *compressRun) seal(st *slabState, t *slabSeams) error {
	blob, err := parallel.PhaseTwo(st.enc, st.nb, t, nil)
	st.out.blob, st.out.stats = blob, st.enc.Stats()
	st.closeEncoder()
	return err
}

// complete runs parked slab st's phase 2 against slab i+1's
// decompressed min plane and emits its outcome. A stopped run releases
// the slab instead.
func (r *compressRun) complete(st *slabState, next [][]int64, sc *slabScratch) {
	if r.ctx.Err() != nil {
		r.release(st)
		return
	}
	panicked, err := attempt(st.i, func() error {
		r.po.Faults.MaybePanic("shm.seam", uint64(st.i), 2)
		return r.seal(st, &slabSeams{next: next})
	})
	if err != nil {
		st.closeEncoder()
		r.degrade(st, panicked, err, sc)
	}
	r.emit(st)
}

// release frees a parked slab that will never complete.
func (r *compressRun) release(st *slabState) {
	st.closeEncoder()
	r.addWindowBytes(-st.raw)
}

// degrade handles slab st's failed encode. A slab is a pure function of
// its planes and its neighbors' seam planes, so encoding it again could
// only repeat the failure: a panic or error degrades the slab at once to
// the lossless escape encoding, and the run completes with every
// critical point intact. A *fixed.DomainError (input outside the
// pipeline's domain, which the fallback would reject too) is kept as
// the slab's error.
func (r *compressRun) degrade(st *slabState, panicked bool, err error, sc *slabScratch) {
	var de *fixed.DomainError
	if errors.As(err, &de) {
		st.out.err = err
		return
	}
	if panicked {
		r.po.Rec.Record(flightrec.Event{Kind: flightrec.KindPanic, Subsystem: r.name,
			Slab: int32(st.i), Detail: "recovered worker panic"})
	}
	r.po.Rec.Record(flightrec.Event{Kind: flightrec.KindDegraded, Subsystem: r.name,
		Slab: int32(st.i), Detail: "slab degraded to lossless escape"})
	blob, ferr := r.lossless(st, sc)
	if ferr != nil {
		st.out = slabOutcome{panicked: panicked,
			err: fmt.Errorf("shm: slab %d failed (%w) and lossless fallback failed: %v", st.i, err, ferr)}
		return
	}
	st.out = slabOutcome{blob: blob, panicked: panicked, degraded: true}
}

// lossless stores slab st exactly, re-read from the source: the failed
// encode may have scribbled on the buffers. A slab that already handed
// its min plane to slab i-1 stores those handed values there, so both
// sides of the seam agree on it; otherwise it hands its exact min plane
// over.
func (r *compressRun) lossless(st *slabState, sc *slabScratch) ([]byte, error) {
	sp := r.spans[st.i]
	nd := len(r.dims)
	bufs := sc.buffers(nd, r.plane*sp.Size)
	if err := r.src.ReadPlanes(sp.Start, sp.Size, bufs); err != nil {
		return nil, err
	}
	if st.hand != nil {
		for c := range bufs {
			r.tr.ToFloat(st.hand[c], bufs[c][:r.plane])
		}
	}
	blob, err := core.CompressLossless(append(slices.Clone(r.dims[:nd-1]), sp.Size), bufs, r.tr)
	if err != nil {
		return nil, r.globalIndex(st.i, err)
	}
	if st.hand == nil && st.i > 0 {
		st.hand = make([][]int64, nd)
		for c := range st.hand {
			st.hand[c] = make([]int64, r.plane)
			r.tr.ToFixed(bufs[c][:r.plane], st.hand[c])
		}
	}
	return blob, nil
}

// emit hands complete slab st to the flusher. The first failure ends
// the run: no further slab is admitted.
func (r *compressRun) emit(st *slabState) {
	out := st.out
	if out.err != nil {
		r.errs[st.i] = out.err
		r.stop(out.err)
	}
	// Only the sealed blob still occupies the window.
	r.addWindowBytes(int64(len(out.blob)) - st.raw)
	r.outCh[st.i] <- out
}

// slab runs slab i through its phase 1 and whatever seam work that
// unblocks on the calling worker.
func (r *compressRun) slab(i int, sc *slabScratch) {
	st := r.phaseOne(i, sc)
	if i > 0 && st.out.err == nil {
		if left := r.seams[i-1].arriveRight(st.hand); left != nil {
			r.complete(left, st.hand, sc)
		}
	}
	if st.enc == nil {
		r.emit(st)
		return
	}
	if next := r.seams[i].arriveLeft(st); next != nil {
		r.complete(st, next, sc)
	}
}

// streamRun executes the windowed fan-out and writes the version-3
// container on w. It carries the fault handling of the pipeline: the
// one-attempt degrade, the pre-flush corruption fault hook,
// flight-recorder attribution, stop-on-first-error, and the per-slab
// telemetry spans (pre-created in slab order so snapshots are
// deterministic).
func (r *compressRun) streamRun(rawBytes int64, workers int, w io.Writer) (Result, error) {
	slabs := len(r.spans)
	po, name := r.po, r.name
	tel := po.Tel
	var run *telemetry.Span
	r.tspans = make([]*telemetry.Span, slabs)
	if tel != nil {
		run = tel.Span(name)
		for i := range r.tspans {
			r.tspans[i] = run.Child(fmt.Sprintf("slab%d", i))
		}
	}

	window := po.windowOf(slabs)
	if slabs > 1 && window < 2 {
		// A slab waits at its seam for its successor's phase 1, so two
		// slabs must fit in the window.
		window = 2
	}
	// More workers than window slots would only queue on admission.
	nWorkers := min(workers, slabs, window)

	sem := make(chan struct{}, window)
	r.seams = make([]seam, slabs)
	r.errs = make([]error, slabs)
	r.outCh = make([]chan slabOutcome, slabs)
	for i := range r.outCh {
		r.outCh[i] = make(chan slabOutcome, 1)
	}
	var next atomic.Int64
	r.ctx, r.stop = po.runContext()
	defer r.stop(nil)
	ctx := r.ctx
	// clientGone records a worker leaving because the caller's context
	// finished; one stopped by another slab's failure records nothing.
	clientGone := func(detail string) {
		if po.Ctx != nil && po.Ctx.Err() != nil {
			po.Rec.Record(flightrec.Event{Kind: flightrec.KindClientGone, Subsystem: name,
				Slab: -1, Detail: detail})
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for wk := 0; wk < nWorkers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := &slabScratch{}
			for {
				t0 := time.Now()
				select {
				case sem <- struct{}{}: //lint:ignore permitbalance the window permit is handed to the flush loop with its blob, and the flusher receives it back after AppendBlob retires the slab
				case <-ctx.Done():
					// The run ended while this worker waited for a window
					// slot; stop before consuming one.
					clientGone("context finished while awaiting window slot")
					return
				}
				if ctx.Err() != nil {
					// Admitted, but the run ended in the meantime: hand the
					// slot back rather than encode for nobody.
					<-sem
					clientGone("context finished at slab admission")
					return
				}
				i := int(next.Add(1)) - 1
				if i >= slabs {
					<-sem
					return
				}
				wait := time.Since(t0)
				if tel != nil {
					tel.Histogram(name + ".window.refill_wait_ns").Observe(int64(wait))
				}
				detail := "window slot granted"
				if wait > time.Millisecond {
					detail = "stalled waiting for window slot"
				}
				po.Rec.Record(flightrec.Event{Kind: flightrec.KindWindowRefill, Subsystem: name,
					Slab: int32(i), Detail: detail})
				r.slab(i, sc)
			}
		}()
	}

	sw := archive.NewStreamWriter(w)
	var stats core.Stats
	var panics int
	var degraded []int
	var ferr error
flush:
	for i := 0; i < slabs; i++ {
		t0 := time.Now()
		var out slabOutcome
		select {
		case out = <-r.outCh[i]:
		case <-ctx.Done():
			// The run ended: slabs past the admitted prefix, and slabs
			// parked for a successor that stopped, will never complete,
			// so stop flushing. Workers exit through their own
			// done-select; once the in-flight slabs have finished their
			// phase 1, the lowest-indexed failure is reported. Every slab
			// below an admitted one was admitted too, so that is the same
			// slab on every run, whichever failed first.
			wg.Wait()
			if _, ferr = lowestSlabErr(r.errs); ferr == nil {
				ferr = po.runErr(name, ctx)
			}
			break flush
		}
		if tel != nil {
			tel.Histogram(name + ".window.flush_wait_ns").Observe(int64(time.Since(t0)))
		}
		err := out.err
		if err == nil {
			blob := out.blob
			if b, fired := po.Faults.Corrupt(blob, uint64(i)); fired {
				// Simulated storage corruption after a successful encode,
				// caught by the integrity checks at decode time. It fires
				// in slab order, so a capped injector picks the same slabs
				// on every run.
				blob = b
				po.Rec.Record(flightrec.Event{Kind: flightrec.KindFaultInjected, Subsystem: name,
					Slab: int32(i), Detail: "blob corrupted after encode"})
			}
			_, err = sw.AppendBlob(blob)
		}
		if err != nil {
			ferr = err
			r.stop(err)
			break flush
		}
		r.addWindowBytes(-int64(len(out.blob)))
		stats.Add(out.stats)
		if out.panicked {
			panics++
		}
		if out.degraded {
			degraded = append(degraded, i)
		}
		po.Rec.Record(flightrec.Event{Kind: flightrec.KindWindowEvict, Subsystem: name,
			Slab: int32(i), Detail: "slab flushed, window slot freed"})
		<-sem
	}
	wg.Wait()
	for i := range r.seams {
		if st := r.seams[i].left; st != nil {
			r.release(st)
		}
	}
	wall := time.Since(start)
	for _, sp := range r.tspans {
		sp.End()
	}
	run.End()

	if ferr != nil {
		return Result{}, ferr
	}
	if err := sw.Close(); err != nil {
		return Result{}, err
	}

	peak := r.peak.Load()
	if tel != nil {
		tel.Counter(name + ".slab.panics").Add(int64(panics))
		tel.Counter(name + ".slab.degraded").Add(int64(len(degraded)))
		tel.Gauge(name + ".window.size").Set(int64(window))
		tel.Gauge(name + ".window.peak_bytes").SetMax(peak)
	}
	res := Result{
		RawBytes:        rawBytes,
		CompressedBytes: sw.Size(),
		Stats:           stats,
		Slabs:           slabs,
		Workers:         nWorkers,
		Window:          window,
		PeakWindowBytes: peak,
		Wall:            wall,
		Panics:          panics,
		Degraded:        degraded,
	}
	if tel != nil {
		tel.Gauge(name + ".throughput_mbps").Set(int64(res.ThroughputMBps()))
		tel.Gauge(name + ".slabs").Set(int64(slabs))
		tel.Gauge(name + ".workers").Set(int64(nWorkers))
	}
	return res, nil
}

// CompressStream compresses the field behind src, slabbed along its
// slow axis (the last entry of src.Dims(): Y in 2D, Z in 3D), writing
// the version-3 container incrementally to w. Peak memory is
// O(window × slab): at most Options.Window slabs are admitted at once,
// each worker holds one slab's raw planes, and sealed blobs leave memory
// as the ordered flusher appends them. Output bytes depend only on the
// field, tr, opts, and the slab count — never on Workers or Window.
func CompressStream(src field.SlabSource, w io.Writer, tr fixed.Transform, opts core.Options, po Options) (Result, error) {
	// Options every slab encode would reject (a non-positive or
	// non-finite bound, an unknown speculation target) would degrade the
	// whole field to lossless storage: reject them up front instead.
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	dims := src.Dims()
	nd := len(dims)
	if nd != 2 && nd != 3 {
		return Result{}, fmt.Errorf("shm: stream compress needs a 2D or 3D source, got %d dims", nd)
	}
	nSlow := dims[nd-1]
	plane, ok := safedim.Product(dims[:nd-1]...)
	if !ok {
		return Result{}, fmt.Errorf("shm: source dims %v overflow", dims)
	}
	r := &compressRun{name: fmt.Sprintf("shm.compress%dd", nd), src: src, dims: dims,
		plane: plane, tr: tr, opts: opts}
	r.po = po.applyBudget(r.slabBytes(1), nSlow)
	slabs, err := slabCount(r.po.Slabs, dims)
	if err != nil {
		return Result{}, err
	}
	r.spans = []parallel.Span{{Start: 0, Size: nSlow}}
	if slabs > 1 {
		if r.spans, err = parallel.Partition(nSlow, slabs); err != nil {
			return Result{}, err
		}
	}
	return r.streamRun(r.slabBytes(nSlow), pool.Workers(r.po.Workers), w)
}

// PlaneSink receives decoded planes at global slow-axis offsets; the
// streaming decoder writes disjoint spans from multiple workers, so
// implementations must tolerate concurrent WritePlanes on disjoint
// starts (field.RawSink does).
type PlaneSink interface {
	WritePlanes(start int, comps [][]float32) error
}

// decodePeekPrefix is the initial prefix read when peeking a slab blob's
// header; headers DEFLATE to well under this, so the plan pass normally
// reads 4 KiB per slab instead of the slab.
const decodePeekPrefix = 4096

// decodeChunkPlanes bounds the planes converted per WritePlanes call in
// the streaming decoder.
const decodeChunkPlanes = 16

// maxPointsPerBlobByte bounds how many grid points one byte of a block
// can describe. Every point costs at least one entropy-code bit per
// stream symbol (three or more per point) before DEFLATE, whose best
// case is about 1032:1, so real blocks stay below ~2.8k points per
// byte; the bound leaves headroom. Plans are built from unverified
// header peeks, so this keeps a corrupt header from sizing the sink.
const maxPointsPerBlobByte = 8192

// decodePlan is the layout of the field held by a slab container:
// global dims plus each slab's plane span, recovered by peeking every
// blob's header (O(header) per slab, no payload decode).
type decodePlan struct {
	dims   []int
	starts []int
	sizes  []int
}

// ContainerDims returns the global dims ([NX, NY] or [NX, NY, NZ]) of the
// field held by a slab container or bare block, from its blob headers
// alone — no payload is decoded. A time series is ErrNotSlabs.
func ContainerDims(sr *archive.StreamReader) ([]int, error) {
	plan, err := planDecode(sr)
	return plan.dims, err
}

// ErrNotSlabs reports a multi-blob container whose blobs are not slab
// blocks — a time series, whose steps would otherwise be stacked into
// one tall field. It wraps archive.ErrCorrupt.
var ErrNotSlabs = fmt.Errorf("shm: container blobs are not slab blocks: %w", archive.ErrCorrupt)

// planDecode peeks every blob's header. The slab axis is the last of
// each blob's dims; the others must agree with slab 0's. Every blob of a
// multi-blob container must be a slab block: placed in the decomposed
// field, or the lossless escape a degraded slab falls back to.
func planDecode(sr *archive.StreamReader) (decodePlan, error) {
	n := sr.Steps()
	if n == 0 {
		return decodePlan{}, errors.New("shm: empty container")
	}
	plan := decodePlan{starts: make([]int, n), sizes: make([]int, n)}
	var buf []byte
	total := 0
	for i := 0; i < n; i++ {
		l, err := sr.BlobLen(i)
		if err != nil {
			return decodePlan{}, err
		}
		var h core.BlockHeader
		for pn := int64(decodePeekPrefix); ; pn *= 4 {
			if pn > l {
				pn = l
			}
			buf, err = sr.ReadBlobPrefix(buf, i, pn)
			if err != nil {
				return decodePlan{}, err
			}
			h, err = core.PeekBlock(buf[:pn])
			if err == nil || pn == l {
				break
			}
			// A too-short prefix truncates the DEFLATE stream; retry
			// with a longer one until the whole blob has been tried.
		}
		if err != nil {
			return decodePlan{}, fmt.Errorf("shm: slab %d: %w", i, err)
		}
		points, ok := safedim.Product(h.Dims...)
		if !ok || int64(points) > maxPointsPerBlobByte*l {
			return decodePlan{}, fmt.Errorf("shm: slab %d header claims %v points in %d bytes: %w",
				i, h.Dims, l, archive.ErrCorrupt)
		}
		if n > 1 && !h.Placed && !h.Lossless {
			return decodePlan{}, fmt.Errorf("shm: blob %d of %d: %w", i, n, ErrNotSlabs)
		}
		last := len(h.Dims) - 1
		if i == 0 {
			plan.dims = h.Dims
		} else if !slices.Equal(h.Dims[:last], plan.dims[:len(plan.dims)-1]) {
			return decodePlan{}, fmt.Errorf("shm: slab %d shape disagrees with slab 0", i)
		}
		plan.starts[i] = total
		plan.sizes[i] = h.Dims[last]
		total += h.Dims[last]
	}
	plan.dims[len(plan.dims)-1] = total
	return plan, nil
}

// DecompressTo streams the decode of a slab container held by r (size
// bytes) into the sink built by sinkFor, which receives the recovered
// global dims ([NX, NY] or [NX, NY, NZ]) once the container's blob
// headers have been peeked. Each slab is loaded, decoded, and written
// one at a time per worker, so peak memory is O(workers × slab) —
// Options.Window additionally caps the concurrent slabs when set. The
// first slab that fails to load or decode stops admission, and its error
// is returned with its slab index. Returns the dims on success.
func DecompressTo(r io.ReaderAt, size int64, po Options, sinkFor func(dims []int) (PlaneSink, error)) ([]int, error) {
	sr, err := archive.OpenStream(r, size)
	if err != nil {
		return nil, err
	}
	plan, err := planDecode(sr)
	if err != nil {
		return nil, err
	}
	sink, err := sinkFor(plan.dims)
	if err != nil {
		return nil, err
	}
	n := sr.Steps()
	if po.MaxMemBytes > 0 && po.Window <= 0 {
		nc := len(plan.dims)
		ps := int64(safedim.MustProduct(plan.dims[:nc-1]...))
		maxPlanes := 0
		for _, s := range plan.sizes {
			if s > maxPlanes {
				maxPlanes = s
			}
		}
		po.Window = budgetWindow(po.MaxMemBytes, int64(maxPlanes)*ps*int64(nc)*4, n, decompressSlabOverhead)
	}
	workers := pool.Workers(po.Workers)
	if w := po.windowOf(n); workers > w {
		workers = w
	}
	var skipped atomic.Bool
	// failed is the lowest slab index that has failed (n while none
	// has). Slabs below it are still decoded, so the error reported is
	// the lowest-indexed failure on every run, whichever failed first.
	var failed atomic.Int64
	failed.Store(int64(n))
	errs := make([]error, n)
	pool.Do(workers, n, func(i int) {
		// Admission check: a slab above a failed one, or any slab of a
		// canceled decode, stops before loading.
		if int64(i) > failed.Load() {
			return
		}
		if po.Ctx != nil && po.Ctx.Err() != nil {
			skipped.Store(true)
			return
		}
		po.Rec.Record(flightrec.Event{Kind: flightrec.KindWindowRefill, Subsystem: "shm.decompress",
			Slab: int32(i), Detail: "slab admitted for decode"})
		blob, err := sr.ReadBlobInto(nil, i)
		if err == nil {
			_, err = core.DecompressTo(blob, decodeChunkPlanes, func(start int, comps [][]float32) error {
				return sink.WritePlanes(plan.starts[i]+start, comps)
			})
		}
		if err != nil {
			errs[i] = err
			for f := failed.Load(); int64(i) < f && !failed.CompareAndSwap(f, int64(i)); f = failed.Load() {
			}
			return
		}
		po.Rec.Record(flightrec.Event{Kind: flightrec.KindWindowEvict, Subsystem: "shm.decompress",
			Slab: int32(i), Detail: "slab decoded and written"})
	})
	if i, err := lowestSlabErr(errs); err != nil {
		// A block-level integrity error cannot know its slab: attribute
		// it to the slab whose decode surfaced it.
		var ie *integrity.IntegrityError
		if errors.As(err, &ie) && ie.Slab < 0 {
			ie.Slab = i
		}
		return nil, fmt.Errorf("shm: slab %d: %w", i, err)
	}
	if skipped.Load() {
		// No slab failed, so the caller's context ended the run.
		return nil, po.runErr("shm.decompress", po.Ctx)
	}
	return plan.dims, nil
}

// Compress compresses the field behind src with the shared transform tr
// on the in-process worker pool: the in-memory convenience wrapper over
// CompressStream, which buffers the whole container in Result.Blob
// (memory-bounded callers should use the stream API). Wrap an in-memory
// field with field.MemOf. The container decodes with
// Decompress or DecompressTo (any worker count) and preserves critical
// points exactly like the single-node path: every vertex follows the
// τ/speculation pipeline, and each slab's max plane is compressed last,
// against its successor's decompressed min plane (two-phase seams).
func Compress(src field.SlabSource, tr fixed.Transform, opts core.Options, po Options) (Result, error) {
	var buf bytes.Buffer
	res, err := CompressStream(src, &buf, tr, opts, po)
	if err != nil {
		return Result{}, err
	}
	res.Blob = buf.Bytes()
	return res, nil
}
