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
	"strings"
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
	// Rec, when non-nil, records retries, recovered panics, missed
	// deadlines, and degradations into the flight recorder, attributed to
	// their slab and attempt. nil disables recording.
	Rec *flightrec.Recorder

	// MaxAttempts bounds how often a slab encode is retried (with
	// backoff) after a panic, error, or deadline before the slab
	// degrades to the lossless escape encoding; <= 0 means 3.
	MaxAttempts int
	// RetryBackoff is the sleep before the second attempt, doubling per
	// further attempt; <= 0 means 1ms.
	RetryBackoff time.Duration
	// SlabTimeout is the per-attempt deadline. A slab attempt that
	// exceeds it is abandoned (its goroutine finishes in the background)
	// and counted as a timeout; 0 disables the deadline.
	SlabTimeout time.Duration
	// Faults, when non-nil, injects worker panics and blob corruption
	// (soak testing only). Production passes nil.
	Faults *faultinject.Injector
}

func (o Options) maxAttempts() int {
	if o.MaxAttempts <= 0 {
		return 3
	}
	return o.MaxAttempts
}

func (o Options) retryBackoff() time.Duration {
	if o.RetryBackoff <= 0 {
		return time.Millisecond
	}
	return o.RetryBackoff
}

// done returns the context's done channel, or nil (blocks forever in a
// select) when no context was configured.
func (o Options) done() <-chan struct{} {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Done()
}

// canceled reports whether the run's context has finished.
func (o Options) canceled() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

// ctxErr maps a finished run context into the pipeline's typed-error
// contract: the result wraps context.Canceled or
// context.DeadlineExceeded (or the context's recorded cause), so callers
// distinguish an abandoned request from a genuine encode failure with
// errors.Is instead of string matching.
func ctxErr(name string, ctx context.Context) error {
	return fmt.Errorf("%s: aborted at slab admission: %w", name, context.Cause(ctx))
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
	// Retries, Panics, and Timeouts count recovered slab failures;
	// Degraded lists the slabs (ascending) that exhausted their attempts
	// and fell back to the lossless escape encoding. A degraded run
	// still decodes exactly and preserves every critical point — it only
	// loses compression ratio on those slabs.
	Retries, Panics, Timeouts int
	Degraded                  []int
}

// DegradationReport renders the fault-tolerance outcome of a run, empty
// when nothing went wrong.
func (r Result) DegradationReport() string {
	if r.Retries == 0 && len(r.Degraded) == 0 {
		return ""
	}
	return fmt.Sprintf("shm: %d retries (%d panics, %d timeouts), %d/%d slabs degraded to lossless %v",
		r.Retries, r.Panics, r.Timeouts, len(r.Degraded), r.Slabs, r.Degraded)
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

// DefaultSlabs derives the slab count from the slow-axis extent. More
// slabs expose more parallelism but store more lossless border planes;
// one slab per four planes, capped at 16, keeps the ratio loss in the
// low percents at Table-2 scales while feeding an 8-way pool. The result
// depends on the field shape only — never on the host — so the same
// input always produces the same archive.
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

// slabOutcome is what one slab's attempt loop produced.
type slabOutcome struct {
	blob     []byte
	stats    core.Stats
	err      error
	retries  int
	panics   int
	timeouts int
	degraded bool
}

// attemptResult carries one attempt's result out of its goroutine; a
// fresh holder per attempt so an abandoned (timed-out) attempt cannot
// race with the attempt that superseded it.
type attemptResult struct {
	blob  []byte
	stats core.Stats
	err   error
}

// runAttempt executes one slab encode attempt with panic containment and
// an optional deadline. On deadline the attempt keeps running in its own
// goroutine until it finishes (Go cannot kill it), but its result is
// dropped.
func runAttempt(i, attempt int, timeout time.Duration, inj *faultinject.Injector,
	span *telemetry.Span, encode func(i int, span *telemetry.Span) ([]byte, core.Stats, error)) (attemptResult, bool) {

	run := func() (res attemptResult) {
		defer func() {
			if r := recover(); r != nil {
				res = attemptResult{err: fmt.Errorf("shm: slab %d attempt %d panicked: %v", i, attempt, r)}
			}
		}()
		inj.MaybePanic("shm.slab", uint64(i), uint64(attempt))
		res.blob, res.stats, res.err = encode(i, span)
		return res
	}
	if timeout <= 0 {
		return run(), false
	}
	start := time.Now()
	ch := make(chan attemptResult, 1)
	go func() { ch <- run() }()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		// When the result and the timer are both ready, select picks
		// either; judging by elapsed time makes a late result a timeout
		// every time.
		if time.Since(start) < timeout {
			return res, false
		}
	case <-timer.C:
	}
	return attemptResult{err: fmt.Errorf("shm: slab %d attempt %d exceeded deadline %v", i, attempt, timeout)}, true
}

// encodeSlab drives the bounded attempt loop for one slab: retry with
// exponential backoff on panic/error/deadline, then degrade to the
// lossless escape encoding so the run completes with every critical
// point intact. A *fixed.DomainError (input outside the pipeline's
// domain) is returned at once.
func encodeSlab(i int, name string, po Options, span *telemetry.Span,
	encode func(i int, span *telemetry.Span) ([]byte, core.Stats, error),
	fallback func(i int) ([]byte, core.Stats, error)) slabOutcome {

	var out slabOutcome
	var lastErr error
	for attempt := 0; attempt < po.maxAttempts(); attempt++ {
		// A dead request must not burn retries (or their backoff sleeps)
		// on a slab nobody will read.
		if po.canceled() {
			out.err = ctxErr(name, po.Ctx)
			return out
		}
		if attempt > 0 {
			out.retries++
			po.Rec.RecordKind(flightrec.KindRetry, name, i, attempt)
			// Back off under the run context: a plain sleep would burn
			// the full exponential wait for a request nobody will read
			// before the canceled() check above could notice.
			backoff := time.NewTimer(po.retryBackoff() << (attempt - 1))
			select {
			case <-po.done():
				backoff.Stop()
				out.err = ctxErr(name, po.Ctx)
				return out
			case <-backoff.C:
			}
		}
		res, timedOut := runAttempt(i, attempt, po.SlabTimeout, po.Faults, span, encode)
		if res.err == nil {
			out.blob, out.stats = res.blob, res.stats
			return out
		}
		// Input the pipeline cannot represent fails every attempt and the
		// lossless fallback alike: report it at once, neither retried nor
		// counted as a degradation.
		var de *fixed.DomainError
		if errors.As(res.err, &de) {
			out.err = res.err
			return out
		}
		lastErr = res.err
		if timedOut {
			out.timeouts++
			po.Rec.Record(flightrec.Event{Kind: flightrec.KindDeadline, Subsystem: name,
				Slab: int32(i), Attempt: int32(attempt), Detail: "slab attempt exceeded deadline"})
		} else if isPanicErr(res.err) {
			out.panics++
			po.Rec.Record(flightrec.Event{Kind: flightrec.KindPanic, Subsystem: name,
				Slab: int32(i), Attempt: int32(attempt), Detail: "recovered worker panic"})
		}
	}
	po.Rec.Record(flightrec.Event{Kind: flightrec.KindDegraded, Subsystem: name,
		Slab: int32(i), Attempt: int32(po.maxAttempts()), Detail: "slab degraded to lossless escape"})
	blob, st, err := fallback(i)
	if err != nil {
		out.err = fmt.Errorf("shm: slab %d failed %d attempts (last: %w) and lossless fallback failed: %v",
			i, po.maxAttempts(), lastErr, err)
		return out
	}
	out.blob, out.stats, out.degraded = blob, st, true
	return out
}

func isPanicErr(err error) bool {
	return err != nil && strings.Contains(err.Error(), "panicked")
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
