package flightrec

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func fakeClock() func() time.Time {
	t := time.Unix(1700000000, 0)
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(time.Millisecond)
		return t
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: KindPanic, Subsystem: "shm.compress2d", Slab: 3})
	r.SetClock(time.Now)
	r.SetDumpPath("/nonexistent/should-not-be-written")
	if r.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	if r.Total() != 0 || r.Dropped() != 0 || r.Snapshot() != nil {
		t.Error("nil recorder retained state")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
	var d Dump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil || d.Recorded != 0 {
		t.Fatalf("nil dump = %s, err %v", buf.Bytes(), err)
	}
	if path, err := r.DumpOnOutcome(os.ErrInvalid, true); path != "" || err != nil {
		t.Fatalf("nil DumpOnOutcome = %q, %v", path, err)
	}
}

func TestRecordOrderAndSeq(t *testing.T) {
	r := New(8)
	r.SetClock(fakeClock())
	r.Record(Event{Kind: KindFaultInjected, Subsystem: "shm.compress2d", Slab: 2})
	r.Record(Event{Kind: KindPanic, Subsystem: "shm.compress2d", Slab: 2})
	r.Record(Event{Kind: KindShed, Subsystem: "server.compress", Slab: -1, Code: 2})
	evs := r.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
		if ev.TimeUnixNS == 0 {
			t.Errorf("event %d missing timestamp", i)
		}
	}
	if evs[0].Kind != KindFaultInjected || evs[2].Kind != KindShed {
		t.Errorf("order wrong: %+v", evs)
	}
	if evs[1].Slab != 2 || evs[2].Code != 2 {
		t.Errorf("attribution lost: %+v", evs[2])
	}
}

// TestRingWrap pins the overflow behaviour: a full ring keeps the newest
// events, reports the overwritten ones as dropped, and the surviving
// sequence numbers expose the gap.
func TestRingWrap(t *testing.T) {
	const capacity, total = 16, 100
	r := New(capacity)
	for i := 0; i < total; i++ {
		r.Record(Event{Kind: KindRollback, Subsystem: "core.2d", Code: int64(i)})
	}
	if got := r.Total(); got != total {
		t.Fatalf("Total = %d, want %d", got, total)
	}
	if got := r.Dropped(); got != total-capacity {
		t.Fatalf("Dropped = %d, want %d", got, total-capacity)
	}
	evs := r.Snapshot()
	if len(evs) != capacity {
		t.Fatalf("snapshot holds %d events, want %d", len(evs), capacity)
	}
	for i, ev := range evs {
		wantSeq := uint64(total - capacity + i + 1)
		if ev.Seq != wantSeq {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, wantSeq)
		}
		if ev.Code != int64(total-capacity+i) {
			t.Fatalf("event %d code = %d", i, ev.Code)
		}
	}
}

// TestConcurrentRecord drives many goroutines into one ring under -race:
// every recorded event must survive with a unique sequence number.
func TestConcurrentRecord(t *testing.T) {
	const workers, perWorker = 8, 500
	r := New(workers * perWorker) // no wrap: every event retained
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Record(Event{Kind: KindPanic, Subsystem: "shm.compress3d", Slab: int32(w), Code: int64(i)})
			}
		}(w)
	}
	wg.Wait()
	evs := r.Snapshot()
	if len(evs) != workers*perWorker {
		t.Fatalf("retained %d events, want %d", len(evs), workers*perWorker)
	}
	seen := make(map[uint64]bool, len(evs))
	for _, ev := range evs {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

func TestDumpOnOutcome(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flight.json")
	r := New(8)
	r.SetDumpPath(path)
	r.Record(Event{Kind: KindShed, Subsystem: "server.compress", Slab: -1, Code: 2})
	r.Record(Event{Kind: KindDegraded, Subsystem: "shm.compress2d", Slab: 1})

	// A clean run must not dump.
	if got, err := r.DumpOnOutcome(nil, false); got != "" || err != nil {
		t.Fatalf("clean run dumped to %q, err %v", got, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("dump file exists after clean run")
	}

	// A degraded run dumps once; a second trigger is a no-op.
	got, err := r.DumpOnOutcome(nil, true)
	if err != nil || got != path {
		t.Fatalf("DumpOnOutcome = %q, %v", got, err)
	}
	if again, err := r.DumpOnOutcome(nil, true); again != "" || err != nil {
		t.Fatalf("second dump = %q, %v", again, err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatalf("dump is not JSON: %v", err)
	}
	if d.Recorded != 2 || len(d.Events) != 2 {
		t.Fatalf("dump = %+v", d)
	}
	if d.Events[0].Kind != KindShed || d.Events[0].Slab != -1 || d.Events[0].Code != 2 {
		t.Fatalf("shed event lost its attribution: %+v", d.Events[0])
	}
	if d.Events[1].Kind != KindDegraded || d.Events[1].Slab != 1 {
		t.Fatalf("degradation event lost attribution: %+v", d.Events[1])
	}
}

func TestKindJSONRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := json.Unmarshal(b, &back); err != nil || back != k {
			t.Fatalf("kind %v round-trips to %v (err %v)", k, back, err)
		}
	}
	var k Kind
	if err := json.Unmarshal([]byte(`"no_such_kind"`), &k); err == nil {
		t.Error("unknown kind name must fail to unmarshal")
	}
}

func BenchmarkRecord(b *testing.B) {
	r := New(DefaultCapacity)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(Event{Kind: KindRollback, Subsystem: "core.3d"})
	}
}

func BenchmarkRecordDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(Event{Kind: KindRollback, Subsystem: "core.3d"})
	}
}
