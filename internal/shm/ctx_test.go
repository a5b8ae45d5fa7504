package shm

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/field"
	"repro/internal/fixed"
)

// gateSource wraps a SlabSource, blocking every ReadPlanes after the
// first `free` ones until the gate channel closes — a controllable stall
// for exercising cancellation mid-window.
type gateSource struct {
	src   field.SlabSource
	gate  chan struct{}
	free  int64
	reads atomic.Int64
}

func (g *gateSource) Dims() []int { return g.src.Dims() }

func (g *gateSource) ReadPlanes(start, count int, comps [][]float32) error {
	if g.reads.Add(1) > g.free {
		<-g.gate
	}
	return g.src.ReadPlanes(start, count, comps)
}

func testField2D(t *testing.T) (*field.Field2D, fixed.Transform) {
	t.Helper()
	f := datagen.Ocean(48, 48)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	return f, tr
}

// A context canceled before the run starts must abort at the first slab
// admission with the typed context error.
func TestStreamCompressCanceledBeforeRun(t *testing.T) {
	f, tr := testField2D(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	_, err := CompressStream(field.Mem2D(f), &buf, tr, core.Options{Tau: 0.01},
		Options{Ctx: ctx, Workers: 2, Slabs: 6})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// Cancelling mid-run must stop admitting slabs promptly: workers stalled
// on the source or the window exit, and the run returns the typed error
// instead of hanging.
func TestStreamCompressCanceledMidRun(t *testing.T) {
	f, tr := testField2D(t)
	gate := &gateSource{src: field.Mem2D(f), gate: make(chan struct{}), free: 2}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	var buf bytes.Buffer
	go func() {
		_, err := CompressStream(gate, &buf, tr, core.Options{Tau: 0.01},
			Options{Ctx: ctx, Workers: 2, Slabs: 8, MaxMemBytes: budgetFor(f.Dims(), 8, 2, compressSlabOverhead)})
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	close(gate.gate) // release stalled readers so in-flight slabs finish
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled run did not return")
	}
}

// A deadline that expires during the run maps to context.DeadlineExceeded.
func TestStreamCompressDeadlineExceeded(t *testing.T) {
	f, tr := testField2D(t)
	gate := &gateSource{src: field.Mem2D(f), gate: make(chan struct{}), free: 1}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	errCh := make(chan error, 1)
	var buf bytes.Buffer
	go func() {
		_, err := CompressStream(gate, &buf, tr, core.Options{Tau: 0.01},
			Options{Ctx: ctx, Workers: 1, Slabs: 8, MaxMemBytes: budgetFor(f.Dims(), 8, 1, compressSlabOverhead)})
		errCh <- err
	}()
	<-ctx.Done()
	close(gate.gate)
	select {
	case err := <-errCh:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("want context.DeadlineExceeded, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deadlined run did not return")
	}
}

// A canceled context aborts the streaming decode with the typed error.
func TestDecompressToCanceled(t *testing.T) {
	f, tr := testField2D(t)
	res, err := Compress(field.Mem2D(f), tr, core.Options{Tau: 0.01}, Options{Workers: 2, Slabs: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = DecompressTo(bytes.NewReader(res.Blob), int64(len(res.Blob)),
		Options{Ctx: ctx, Workers: 2},
		func(dims []int) (PlaneSink, error) { return field.NewRawSink(discardWriterAt{}, dims...) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// A nil context (the default) must leave behavior untouched: identical
// bytes to a plain run.
func TestNilContextIdentical(t *testing.T) {
	f, tr := testField2D(t)
	plain, err := Compress(field.Mem2D(f), tr, core.Options{Tau: 0.01}, Options{Workers: 2, Slabs: 4})
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := Compress(field.Mem2D(f), tr, core.Options{Tau: 0.01},
		Options{Ctx: context.Background(), Workers: 2, Slabs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Blob, withCtx.Blob) {
		t.Fatal("context-carrying run changed output bytes")
	}
}

type discardWriterAt struct{}

func (discardWriterAt) WriteAt(p []byte, off int64) (int, error) { return len(p), nil }
