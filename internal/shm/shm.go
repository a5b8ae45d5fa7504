// Package shm is the shared-memory parallel compression pipeline: the
// paper's lossless-border decomposition (Sec. V-A) executed on real OS
// threads instead of the simulated message-passing machine of package
// parallel. The field is split into slabs along its slowest-varying axis
// (Y in 2D, Z in 3D), each slab compresses independently on a worker
// drawn from a GOMAXPROCS-sized pool — border vertices are stored
// losslessly, so no worker ever communicates — and the per-slab blobs
// are concatenated in slab order into the existing archive container.
//
// Determinism is load-bearing: the slab count is a function of the field
// shape only (never of the worker count), blobs land in an indexed slice,
// and the container writes them in slab order — so workers=N output is
// byte-identical to workers=1. TestShmDeterministic pins this.
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
	"repro/internal/fixed"
	"repro/internal/flightrec"
	"repro/internal/integrity"
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
	// Slabs fixes the slab count; <= 0 derives it from the field shape
	// with DefaultSlabs. The slab count determines the output bytes
	// (border vertices are stored losslessly), so runs that must be
	// comparable byte-for-byte must agree on it.
	Slabs int
	// Window bounds how many slabs the streaming pipeline admits at
	// once — the out-of-core memory knob: peak memory is O(Window ×
	// slab), and a worker stalls until the ordered flusher retires the
	// oldest admitted slab. <= 0 means unbounded (every slab at once,
	// the in-memory behavior). Window never influences the output
	// bytes, only peak memory and stalls.
	Window int
	// MaxMemBytes is the operator-facing peak-memory budget of the
	// streaming pipeline (topozip -max-mem). When set, it derives the
	// knobs left at zero: Slabs is sized so one slab plus encode scratch
	// fits comfortably, and Window to how many such slabs the budget
	// admits at once. Explicit Slabs/Window settings always win. The
	// derived slab count is a function of the budget and field shape
	// only, so output bytes stay independent of Workers. 0 disables
	// budget sizing.
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

// DefaultSlabs derives the slab count from the slow-axis extent: one
// slab per four planes, capped at 16, enough to feed an 8-way pool. More
// slabs expose more parallelism but store more lossless border planes,
// and the loss is large: measured on Ocean (1 worker), 16 slabs keep only
// 31% of the one-slab ratio at 128² ST1 (4.40 against 13.99) and 55% at
// 768×576 NoSpec (19.60 against 35.78), and both shapes get 16 slabs
// here. The "Two-phase slab borders in shm" item of ROADMAP.md is the
// fix. The result depends on the field shape only — never on the host —
// so the same input always produces the same archive.
func DefaultSlabs(nSlow int) int {
	s := nSlow / 4
	if s > 16 {
		s = 16
	}
	if s < 1 {
		s = 1
	}
	return s
}

// slabOutcome is what one slab's encode produced.
type slabOutcome struct {
	blob     []byte
	stats    core.Stats
	err      error
	panicked bool
	degraded bool
}

// encodeSlab runs one slab's encode under a recover barrier. A slab is a
// pure function of its own planes (border vertices are lossless), so
// encoding it again could only repeat the failure: a panic or error
// degrades the slab at once to the lossless escape encoding, and the run
// completes with every critical point intact. A *fixed.DomainError
// (input outside the pipeline's domain, which the fallback would reject
// too) is returned as is.
func encodeSlab(i int, name string, po Options, span *telemetry.Span, sc *slabScratch,
	encode func(i int, span *telemetry.Span, sc *slabScratch) ([]byte, core.Stats, error),
	fallback func(i int, sc *slabScratch) ([]byte, core.Stats, error)) (out slabOutcome) {

	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				out.panicked = true
				err = fmt.Errorf("shm: slab %d panicked: %v", i, r)
			}
		}()
		po.Faults.MaybePanic("shm.slab", uint64(i))
		out.blob, out.stats, err = encode(i, span, sc)
		return err
	}()
	if err == nil {
		return out
	}
	var de *fixed.DomainError
	if errors.As(err, &de) {
		out.err = err
		return out
	}
	if out.panicked {
		po.Rec.Record(flightrec.Event{Kind: flightrec.KindPanic, Subsystem: name,
			Slab: int32(i), Attempt: -1, Detail: "recovered worker panic"})
	}
	po.Rec.Record(flightrec.Event{Kind: flightrec.KindDegraded, Subsystem: name,
		Slab: int32(i), Attempt: -1, Detail: "slab degraded to lossless escape"})
	// The fallback re-reads the slab from the source: the failed encode
	// may have scribbled on the scratch buffers.
	blob, st, ferr := fallback(i, sc)
	if ferr != nil {
		out.err = fmt.Errorf("shm: slab %d failed (%w) and lossless fallback failed: %v", i, err, ferr)
		return out
	}
	out.blob, out.stats, out.degraded = blob, st, true
	return out
}

// slabCount resolves the requested slab count against the slow axis.
func slabCount(requested, nSlow int) (int, error) {
	s := requested
	if s <= 0 {
		s = DefaultSlabs(nSlow)
	}
	if s > 1 && nSlow < 2*s {
		return 0, fmt.Errorf("shm: cannot split %d planes into %d slabs of >=2", nSlow, s)
	}
	return s, nil
}

// firstSlabErr wraps the first per-slab decode failure with its slab
// index, attributing block-level integrity errors (which cannot know
// their slab) to the slab whose decode surfaced them.
func firstSlabErr(errs []error) error {
	for i, err := range errs {
		if err == nil {
			continue
		}
		var ie *integrity.IntegrityError
		if errors.As(err, &ie) && ie.Slab < 0 {
			ie.Slab = i
		}
		return fmt.Errorf("shm: slab %d: %w", i, err)
	}
	return nil
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
