// Package shm is the shared-memory parallel compression pipeline: the
// paper's ratio-oriented decomposition (Sec. V-A, Fig. 4) executed on
// real OS threads instead of the simulated message-passing machine of
// package parallel. A field too large for one memory window is split
// into slabs along its slowest-varying axis (Y in 2D, Z in 3D); each
// slab compresses on a worker drawn from a GOMAXPROCS-sized pool, and
// neighboring slabs meet at two-phase seams: a slab's max plane is
// compressed last, against its successor's decompressed min plane, so
// a slab container keeps the single-block ratio and every critical
// point. The per-slab blobs are concatenated in slab order into the
// archive container. A field that fits is one whole-domain slab, which
// core sweeps in slow-axis pieces on every core and decodes pipelined.
//
// Determinism is load-bearing: the slab count is a function of the field
// shape and the memory budget only (never of the worker count), a seam
// plane is a pure function of its slab's input, blobs land in an indexed
// slice, and the container writes them in slab order — so the output is
// byte-identical for any worker count and any window.
// TestShmDeterministic pins this.
package shm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/field"
	"repro/internal/flightrec"
	"repro/internal/safedim"
	"repro/internal/telemetry"
)

// Options configures a shared-memory run.
type Options struct {
	// Ctx, when non-nil, aborts the streaming pipeline: the cancellation
	// is checked at slab admission (the retire-before-admit loop), so a
	// dead request stops consuming workers as soon as its current slabs
	// finish — no new slab is admitted, the flusher stops, and the run
	// returns an error satisfying errors.Is against context.Canceled or
	// context.DeadlineExceeded. nil means run to completion.
	Ctx context.Context
	// Workers caps the worker pool; <= 0 means runtime.GOMAXPROCS(0).
	// Workers never influences the output bytes, only the wall time.
	Workers int
	// Slabs fixes the slab count; <= 0 derives it from MaxMemBytes when
	// that is set, else from the field shape with DefaultSlabs. The slab
	// count determines the output bytes (each seam changes the visit
	// order), so runs that must be comparable byte-for-byte must agree
	// on it.
	Slabs int
	// MaxMemBytes is the operator-facing peak-memory budget of the
	// streaming pipeline (topozip -max-mem). It alone sets the window:
	// how many slabs the pipeline admits at once, peak memory being
	// O(window × slab); a worker stalls until the ordered flusher retires
	// the oldest admitted slab. A slab waits at its seam for its
	// successor's phase 1, so a compress run of several slabs admits at
	// least two. When Slabs is left at zero the budget also sizes the
	// slabs so one plus encode scratch fits comfortably; an explicit
	// Slabs wins. The derived slab count is a function of the budget and
	// field shape only, so output bytes stay independent of Workers. 0
	// means no budget: every slab is admitted at once.
	MaxMemBytes int64
	// Tel, when non-nil, receives a run span with one child span per
	// slab plus the per-stage engine spans underneath.
	Tel *telemetry.Collector
	// Rec, when non-nil, records recovered panics and degradations into
	// the flight recorder, attributed to their slab. nil disables
	// recording.
	Rec *flightrec.Recorder
	// Faults, when non-nil, injects worker panics and blob corruption
	// (soak testing only). Production passes nil.
	Faults *faultinject.Injector
}

// runContext derives the run's context from Ctx. Canceling it with a
// slab's error stops admission of further slabs, so the first failure
// ends the run instead of leaving every remaining slab to be encoded
// for nothing.
func (o Options) runContext() (context.Context, context.CancelCauseFunc) {
	parent := o.Ctx
	if parent == nil {
		parent = context.Background()
	}
	return context.WithCancelCause(parent)
}

// runErr reports why a run context finished: a failed slab's own
// error as is, or the caller's cancellation wrapped so that callers
// distinguish an abandoned request from a genuine failure with
// errors.Is against context.Canceled or context.DeadlineExceeded.
func (o Options) runErr(name string, run context.Context) error {
	cause := context.Cause(run)
	if o.Ctx != nil && errors.Is(cause, context.Cause(o.Ctx)) {
		return fmt.Errorf("%s: aborted at slab admission: %w", name, cause)
	}
	return cause
}

// Result summarizes a shared-memory compression run.
type Result struct {
	// Blob is the archive container holding the per-slab blocks.
	Blob []byte
	// RawBytes and CompressedBytes give the compression ratio.
	RawBytes, CompressedBytes int64
	// Stats aggregates the per-slab encoder stats.
	Stats core.Stats
	// Slabs and Workers record the executed decomposition.
	Slabs, Workers int
	// Window is the slab-window size the run executed with (== Slabs
	// when unbounded); PeakWindowBytes is the high-water mark of bytes
	// admitted at once (raw slab buffers plus sealed, unflushed blobs).
	Window          int
	PeakWindowBytes int64
	// Wall is the real (not simulated) compression wall time.
	Wall time.Duration
	// Panics counts recovered worker panics; Degraded lists the slabs
	// (ascending) whose encode panicked or failed and which fell back to
	// the lossless escape encoding. A degraded run still decodes exactly
	// and preserves every critical point — it only loses compression
	// ratio on those slabs.
	Panics   int
	Degraded []int
}

// DegradationReport renders the fault-tolerance outcome of a run, empty
// when nothing went wrong.
func (r Result) DegradationReport() string {
	if len(r.Degraded) == 0 {
		return ""
	}
	return fmt.Sprintf("shm: %d panics, %d/%d slabs degraded to lossless %v",
		r.Panics, len(r.Degraded), r.Slabs, r.Degraded)
}

// Ratio returns the compression ratio.
func (r Result) Ratio() float64 {
	if r.CompressedBytes == 0 {
		return 0
	}
	return float64(r.RawBytes) / float64(r.CompressedBytes)
}

// ThroughputMBps returns the wall-clock compression throughput in MB/s.
func (r Result) ThroughputMBps() float64 {
	s := r.Wall.Seconds()
	if s == 0 {
		return 0
	}
	return float64(r.RawBytes) / 1e6 / s
}

// minSlabVertices is the smallest slab DefaultSlabs cuts: one slab per
// this many vertices, so a default slab holds at least 64 Ki vertices.
// Timed on a 2-vCPU Linux container with shm.Compress/Decompress on 2
// workers (τ = 1% of the range, medians of 9–11 runs, alternating k;
// results/slab_sweep.txt). Two-phase slabs cost ratio only when small
// and 2D, where each slab's code table weighs: Ocean 128² ST1 loses
// 2.4% at 2 slabs of 8 Ki and gains no time (compress 9.3 against 9.5
// ms, decode 1.40 against 1.21 ms); Ocean 256² loses 1.1% at 2 slabs of
// 32 Ki for 17–23% less time. From 48 Ki vertices per slab no shape lost
// more than 0.3% (Ocean 512×384 ×4 +0.5%, 768×576 ×8 +2.0%, 1536×1152
// ×8 +4.2%, Hurricane 64×64×96 ×8 −0.2%, Nek 48³ ST4 ×2 +1.3%, 96³ ×8
// +0.3%), and slabs decoded 1.4–2.4× and compressed 1.1–1.6× faster
// than one block. Below it a field is one whole-domain block, which
// core already sweeps in pieces on every core and decodes pipelined.
const minSlabVertices = 1 << 16

// DefaultSlabs derives the slab count of a field of dims ([NX, NY] or
// [NX, NY, NZ]) when no memory budget sets it: one slab per
// minSlabVertices vertices, clamped to [1, 16] and to half the slow-axis
// extent (a slab needs two planes). Two-phase seams keep the kernel's
// ratio, so slabs only bound the size of a unit of work and of a
// windowed decode. The result depends on the field shape only — never
// on the host — so the same input always produces the same archive.
func DefaultSlabs(dims []int) int {
	n, ok := safedim.Product(dims...)
	if !ok || len(dims) == 0 {
		return 1
	}
	return max(1, min(n/minSlabVertices, 16, dims[len(dims)-1]/2))
}

// slabOutcome is what one slab's encode produced.
type slabOutcome struct {
	blob     []byte
	stats    core.Stats
	err      error
	panicked bool
	degraded bool
}

// slabCount resolves the requested slab count against the field shape.
func slabCount(requested int, dims []int) (int, error) {
	s := requested
	if s <= 0 {
		s = DefaultSlabs(dims)
	}
	if nSlow := dims[len(dims)-1]; s > 1 && nSlow < 2*s {
		return 0, fmt.Errorf("shm: cannot split %d planes into %d slabs of >=2", nSlow, s)
	}
	return s, nil
}

// lowestSlabErr returns the lowest-indexed non-nil error of errs and
// its slab index, or (-1, nil) when every slab succeeded.
func lowestSlabErr(errs []error) (int, error) {
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}

// Decompress decodes a container (or a bare block) held in memory into
// dst, whose dims must equal the stored field's: the in-memory
// convenience wrapper over DecompressTo. The result is identical for any
// worker count (<= 0 means GOMAXPROCS).
func Decompress(data []byte, workers int, dst *field.Mem) error {
	_, err := DecompressTo(bytes.NewReader(data), int64(len(data)), Options{Workers: workers},
		func(dims []int) (PlaneSink, error) {
			if !slices.Equal(dims, dst.Dims()) {
				return nil, fmt.Errorf("shm: container holds a field of dims %v, want %v", dims, dst.Dims())
			}
			return dst, nil
		})
	return err
}
