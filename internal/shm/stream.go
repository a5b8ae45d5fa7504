// The out-of-core streaming engine: slabs are pulled through a bounded
// admission window from a field.SlabSource, compressed on the worker
// pool, and flushed in slab order to an archive.StreamWriter — peak
// memory is O(window × slab), never O(field), and the output bytes are
// identical to the in-memory path for any worker count and any window.
//
// Pipeline shape and its deadlock-freedom argument:
//
//	worker: acquire window permit → take next slab index → read slab
//	        from source → encode (degrading once to lossless on a panic
//	        or error) → hand the sealed blob to the flusher
//	flusher (caller's goroutine): for each slab in order: await its
//	        blob → append to the stream writer → drop the blob →
//	        release the permit
//
// Permits are acquired before a slab index is taken, so admitted slabs
// form a prefix-contiguous set and the flusher's lowest unflushed slab
// is always one some worker holds; per-slab hand-off channels are
// buffered, so that worker cannot block. The first slab error cancels
// the run context, so workers stop at their next admission and the
// flusher stops waiting for slabs that will never be admitted.

package shm

import (
	"bytes"
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
	"repro/internal/parallel"
	"repro/internal/safedim"
	"repro/internal/shm/pool"
	"repro/internal/telemetry"
)

// slabScratch is one worker's reusable raw-plane buffers, grown to the
// largest slab the worker has seen and recycled across slabs — the
// engine's raw memory is O(workers × slab).
type slabScratch struct {
	comps [][]float32
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

// streamRun executes the windowed fan-out and writes the version-3
// container on w. It carries the fault handling of the pipeline:
// encodeSlab's one-attempt degrade, the post-encode corruption fault
// hook, flight-recorder attribution, stop-on-first-error, and the
// per-slab telemetry spans (pre-created in slab order so snapshots are
// deterministic).
func streamRun(name string, rawBytes int64, slabs, workers int, po Options, w io.Writer,
	encode func(i int, span *telemetry.Span, sc *slabScratch) ([]byte, core.Stats, error),
	fallback func(i int, sc *slabScratch) ([]byte, core.Stats, error),
	slabRawBytes func(i int) int64) (Result, error) {

	tel := po.Tel
	var run *telemetry.Span
	spans := make([]*telemetry.Span, slabs)
	if tel != nil {
		run = tel.Span(name)
		for i := range spans {
			spans[i] = run.Child(fmt.Sprintf("slab%d", i))
		}
	}

	window := po.windowOf(slabs)
	// More workers than window slots would only queue on admission.
	nWorkers := min(workers, slabs, window)

	sem := make(chan struct{}, window)
	outCh := make([]chan slabOutcome, slabs)
	for i := range outCh {
		outCh[i] = make(chan slabOutcome, 1)
	}
	var next atomic.Int64
	var curBytes, peakBytes atomic.Int64
	addWindowBytes := func(d int64) {
		v := curBytes.Add(d)
		for {
			p := peakBytes.Load()
			if v <= p || peakBytes.CompareAndSwap(p, v) {
				return
			}
		}
	}
	ctx, stop := po.runContext()
	defer stop(nil)
	// clientGone records a worker leaving because the caller's context
	// finished; one stopped by another slab's failure records nothing.
	clientGone := func(detail string) {
		if po.Ctx != nil && po.Ctx.Err() != nil {
			po.Rec.Record(flightrec.Event{Kind: flightrec.KindClientGone, Subsystem: name,
				Slab: -1, Attempt: -1, Detail: detail})
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
					Slab: int32(i), Attempt: -1, Detail: detail})
				raw := slabRawBytes(i)
				addWindowBytes(raw)
				out := encodeSlab(i, name, po, spans[i], sc, encode, fallback)
				if out.err != nil {
					// The first failure ends the run: no further slab is
					// admitted.
					stop(out.err)
				}
				if blob, fired := po.Faults.Corrupt(out.blob, uint64(i)); fired {
					// Simulated storage corruption after a successful encode,
					// caught by the integrity checks at decode time.
					out.blob = blob
					po.Rec.Record(flightrec.Event{Kind: flightrec.KindFaultInjected, Subsystem: name,
						Slab: int32(i), Attempt: -1, Detail: "blob corrupted after encode"})
				}
				// The slab's raw buffers are now idle scratch; only its
				// sealed blob still occupies the window.
				addWindowBytes(int64(len(out.blob)) - raw)
				outCh[i] <- out
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
		case out = <-outCh[i]:
		case <-ctx.Done():
			// The run ended: slabs past the admitted prefix will never
			// produce an outcome, so stop flushing. Workers exit through
			// their own done-select; once the in-flight encodes have
			// finished, the lowest-indexed failure is reported. Every
			// slab below an admitted one was admitted too, so that is
			// the same slab on every run, whichever failed first.
			wg.Wait()
			if ferr = lowestSlabErr(outCh[i:]); ferr == nil {
				ferr = po.runErr(name, ctx)
			}
			break flush
		}
		if tel != nil {
			tel.Histogram(name + ".window.flush_wait_ns").Observe(int64(time.Since(t0)))
		}
		err := out.err
		if err == nil {
			_, err = sw.AppendBlob(out.blob)
		}
		if err != nil {
			ferr = err
			stop(err)
			break flush
		}
		addWindowBytes(-int64(len(out.blob)))
		stats.Add(out.stats)
		if out.panicked {
			panics++
		}
		if out.degraded {
			degraded = append(degraded, i)
		}
		po.Rec.Record(flightrec.Event{Kind: flightrec.KindWindowEvict, Subsystem: name,
			Slab: int32(i), Attempt: -1, Detail: "slab flushed, window slot freed"})
		<-sem
	}
	wg.Wait()
	wall := time.Since(start)
	for _, sp := range spans {
		sp.End()
	}
	run.End()

	if ferr != nil {
		return Result{}, ferr
	}
	if err := sw.Close(); err != nil {
		return Result{}, err
	}

	peak := peakBytes.Load()
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

// lowestSlabErr returns the first error among the buffered outcomes in
// chs, stopping at the first slab that has none: the end of the admitted
// prefix.
func lowestSlabErr(chs []chan slabOutcome) error {
	for _, ch := range chs {
		select {
		case out := <-ch:
			if out.err != nil {
				return out.err
			}
		default:
			return nil
		}
	}
	return nil
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
	slabBytes := func(planes int) int64 { return int64(plane) * int64(planes) * int64(nd) * 4 }
	po = po.applyBudget(slabBytes(1), nSlow)
	slabs, err := slabCount(po.Slabs, nSlow)
	if err != nil {
		return Result{}, err
	}
	spans := []parallel.Span{{Start: 0, Size: nSlow}}
	if slabs > 1 {
		if spans, err = parallel.Partition(nSlow, slabs); err != nil {
			return Result{}, err
		}
	}
	// read loads slab i into the worker's buffers and describes it as a
	// block. The lossless fallback reads again: a failed encode may have
	// mutated the buffers, and the source is the only clean copy.
	read := func(i int, sc *slabScratch) ([]int, [][]float32, error) {
		sp := spans[i]
		bufs := sc.buffers(nd, plane*sp.Size)
		if err := src.ReadPlanes(sp.Start, sp.Size, bufs); err != nil {
			return nil, nil, err
		}
		own := append(slices.Clone(dims[:nd-1]), sp.Size)
		return own, bufs, nil
	}
	// globalIndex re-bases a slab-local value error onto the field, so
	// the caller is told where in its input the value sits.
	globalIndex := func(i int, err error) error {
		var de *fixed.DomainError
		if errors.As(err, &de) && de.Param == "" {
			de.Index += spans[i].Start * plane
		}
		return err
	}
	return streamRun(fmt.Sprintf("shm.compress%dd", nd), slabBytes(nSlow), slabs, pool.Workers(po.Workers), po, w,
		func(i int, span *telemetry.Span, sc *slabScratch) ([]byte, core.Stats, error) {
			own, bufs, err := read(i, sc)
			if err != nil {
				return nil, core.Stats{}, err
			}
			o := opts
			o.Tel = po.Tel
			o.TelSpan = span
			o.Rec = po.Rec
			o.RecSlab = i
			origin := make([]int, nd)
			origin[nd-1] = spans[i].Start
			blk := core.Block{
				Dims: own, Comps: bufs, Transform: tr, Opts: o,
				Origin: origin, Global: dims,
				// A lone slab has no borders; leaving the flag off keeps
				// its block byte-identical to the single-node output.
				LosslessBorder: slabs > 1,
			}
			blk.Neighbor[2*(nd-1)] = i > 0
			blk.Neighbor[2*(nd-1)+1] = i < slabs-1
			blob, st, err := core.CompressBlock(blk)
			return blob, st, globalIndex(i, err)
		},
		func(i int, sc *slabScratch) ([]byte, core.Stats, error) {
			own, bufs, err := read(i, sc)
			if err != nil {
				return nil, core.Stats{}, err
			}
			blob, err := core.CompressLossless(own, bufs, tr)
			return blob, core.Stats{}, globalIndex(i, err)
		},
		func(i int) int64 { return slabBytes(spans[i].Size) })
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
			Slab: int32(i), Attempt: -1, Detail: "slab admitted for decode"})
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
			Slab: int32(i), Attempt: -1, Detail: "slab decoded and written"})
	})
	if err := firstSlabErr(errs); err != nil {
		return nil, err
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
// points exactly like the single-node path: interior vertices follow the
// τ/speculation pipeline, slab border vertices are lossless.
func Compress(src field.SlabSource, tr fixed.Transform, opts core.Options, po Options) (Result, error) {
	var buf bytes.Buffer
	res, err := CompressStream(src, &buf, tr, opts, po)
	if err != nil {
		return Result{}, err
	}
	res.Blob = buf.Bytes()
	return res, nil
}
