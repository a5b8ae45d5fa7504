package shm

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/flightrec"
	"repro/internal/pool"
	"repro/internal/telemetry"
)

// TestObservabilityConcurrent drives the full observability surface —
// flight-recorder events, spans, counters, histograms, and concurrent
// exports — from many workers on the shm pool at once. Run with -race:
// its whole point is flushing data races out of the instrumentation the
// slab pipeline records into from every worker.
func TestObservabilityConcurrent(t *testing.T) {
	col := telemetry.New()
	rec := flightrec.New(256) // small ring so wrap happens under contention
	const workers = 8
	const tasks = 64
	const perTask = 50

	root := col.Span("shm.compress2d")
	spans := make([]*telemetry.Span, tasks)
	for i := range spans {
		spans[i] = root.Child(fmt.Sprintf("slab%d", i))
	}
	// Exports race against recording on purpose.
	var exporters sync.WaitGroup
	stop := make(chan struct{})
	exporters.Add(1)
	go func() {
		defer exporters.Done()
		for {
			select {
			case <-stop:
				return
			default:
				col.WritePrometheus(discard{}, "")
				rec.WriteJSON(discard{})
			}
		}
	}()

	pool.Do(workers, tasks, func(i int) {
		ctr := col.Counter("shm.compress2d.slab.panics")
		h := col.Histogram("core.2d.bound_exp_sym")
		for j := 0; j < perTask; j++ {
			rec.Record(flightrec.Event{Kind: flightrec.KindPanic, Subsystem: "shm.compress2d",
				Slab: int32(i), Code: int64(j)})
			ctr.Inc()
			h.Observe(int64(j + 1))
		}
		spans[i].End()
	})
	root.End()
	close(stop)
	exporters.Wait()

	const total = tasks * perTask
	if got := rec.Total(); got != total {
		t.Errorf("recorder total = %d, want %d", got, total)
	}
	if got := rec.Dropped(); got != total-256 {
		t.Errorf("dropped = %d, want %d", got, total-256)
	}
	if got := col.Counter("shm.compress2d.slab.panics").Value(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	snap := col.Snapshot()
	if len(snap.Spans) != 1 || len(snap.Spans[0].Children) != tasks {
		t.Errorf("span forest: %d roots, %d children", len(snap.Spans), len(snap.Spans[0].Children))
	}
	// Every retained event survived the concurrent ring wrap intact:
	// sequence numbers are unique and the payloads well-formed.
	seen := make(map[uint64]bool)
	for _, ev := range rec.Snapshot() {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d after concurrent wrap", ev.Seq)
		}
		seen[ev.Seq] = true
		if ev.Kind != flightrec.KindPanic || ev.Slab < 0 || ev.Slab >= tasks {
			t.Fatalf("mangled event %+v", ev)
		}
	}
	if len(seen) != 256 {
		t.Errorf("retained %d events, want ring capacity 256", len(seen))
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
