// Package flightrec is the pipeline's flight recorder: a fixed-size,
// allocation-free ring of structured events recording the rare,
// diagnosis-critical moments of a run — recovered panics, degradations
// to the lossless escape, integrity failures, speculation rollbacks,
// window admissions, shed requests and injected faults. When a run ends in an
// error or a degradation, the ring is dumped as JSON so the postmortem
// shows the exact event sequence that led there, oldest first.
//
// The package follows the repository's nil-safe instrumentation
// convention (see internal/telemetry): a nil *Recorder is the disabled
// state and every method on it is a no-op costing one nil check, so hot
// paths carry their Record calls unconditionally. Recording into an
// enabled ring takes one short critical section and writes into
// preallocated slots — no per-event allocation, ever; once the ring is
// full the oldest events are overwritten and counted as dropped.
//
// All methods are safe for concurrent use; the shared-memory slab workers
// and the daemon's request handlers record into one ring.
package flightrec

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Kind classifies an event.
type Kind uint8

const (
	// KindNote is a free-form marker (run start, stage transitions).
	KindNote Kind = iota
	// KindPanic is a recovered worker panic.
	KindPanic
	// KindDegraded is a slab falling back to the lossless escape encoding
	// after its one encode attempt panicked or failed.
	KindDegraded
	// KindIntegrityFail is a checksum or structural integrity failure
	// surfaced by a decode.
	KindIntegrityFail
	// KindRollback is a rejected speculation trial (the kernel restoring
	// pre-trial state for a vertex).
	KindRollback
	// KindFaultInjected is a deterministic fault fired by
	// internal/faultinject.
	KindFaultInjected
	// KindWindowRefill is a streaming slab admitted into the bounded
	// window (the worker may have stalled waiting for a free window
	// slot; Detail distinguishes an immediate grant from a stall).
	KindWindowRefill
	// KindWindowEvict is a streaming slab retired from the window after
	// its blob was flushed to the container, freeing its slot.
	KindWindowEvict
	// KindShed is a network request rejected at admission because the
	// daemon's bounded queue was full (the 429 load-shedding path).
	KindShed
	// KindClientGone is a network request abandoned mid-stream by its
	// client; the server cancels the request context and releases the
	// admission permit.
	KindClientGone
	numKinds
)

var kindNames = [numKinds]string{
	"note", "panic", "degraded", "integrity_fail", "rollback",
	"fault_injected", "window_refill", "window_evict", "shed", "client_gone",
}

func (k Kind) String() string {
	if k >= numKinds {
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
	return kindNames[k]
}

// MarshalJSON encodes the kind as its string name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON accepts a kind name written by MarshalJSON.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, n := range kindNames {
		if n == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("flightrec: unknown kind %q", s)
}

// Event is one recorded moment. The struct is fixed-size and free of
// heap-allocating fields beyond string headers: Subsystem and Detail are
// expected to reference constant or long-lived strings, so recording one
// never allocates.
type Event struct {
	// Seq is the global sequence number, starting at 1; gaps after a dump
	// reveal dropped (overwritten) events.
	Seq uint64 `json:"seq"`
	// TimeUnixNS is the wall-clock time of the record call.
	TimeUnixNS int64 `json:"time_unix_ns"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Subsystem names the emitter, e.g. "shm.compress2d" or "core.3d".
	Subsystem string `json:"subsystem,omitempty"`
	// Slab is the slab index the event belongs to, -1 when not slab
	// scoped.
	Slab int32 `json:"slab"`
	// Code carries an event-specific payload: a vertex id for rollbacks,
	// a fault kind for injections, a byte offset for integrity failures.
	Code int64 `json:"code,omitempty"`
	// Detail is a short, preallocated description (an error site, a fault
	// name). Formatting a fresh string here would defeat the
	// allocation-free contract; pass constants or pre-built strings.
	Detail string `json:"detail,omitempty"`
}

// DefaultCapacity is the ring size New uses when given a non-positive
// capacity: large enough to hold the full panic/degradation history of a
// saturated 16-slab run with room for kernel rollback context.
const DefaultCapacity = 4096

// Recorder is the bounded event ring. A nil *Recorder records nothing.
type Recorder struct {
	mu      sync.Mutex
	ring    []Event
	next    uint64 // total events ever recorded == next Seq - 1
	now     func() time.Time
	dumped  bool
	dumpDst string
}

// New returns an enabled recorder holding the last cap events
// (DefaultCapacity when cap <= 0).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{ring: make([]Event, capacity), now: time.Now}
}

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil }

// SetClock replaces the wall clock, for deterministic tests.
func (r *Recorder) SetClock(now func() time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.now = now
	r.mu.Unlock()
}

// Record appends ev to the ring, filling Seq and TimeUnixNS. The oldest
// event is overwritten when the ring is full.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	ev.Seq = r.next + 1
	ev.TimeUnixNS = r.now().UnixNano()
	r.ring[r.next%uint64(len(r.ring))] = ev
	r.next++
	r.mu.Unlock()
}

// Total returns how many events were ever recorded (including ones the
// ring has since overwritten).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Dropped returns how many events were overwritten by ring wrap.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next <= uint64(len(r.ring)) {
		return 0
	}
	return r.next - uint64(len(r.ring))
}

// Snapshot copies the retained events out of the ring, oldest first.
// A nil recorder yields nil.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	capacity := uint64(len(r.ring))
	start := uint64(0)
	count := n
	if n > capacity {
		start = n - capacity
		count = capacity
	}
	out := make([]Event, 0, count)
	for i := start; i < n; i++ {
		out = append(out, r.ring[i%capacity])
	}
	return out
}

// Dump is the JSON document a postmortem reads: recording totals plus the
// retained event sequence, oldest first.
type Dump struct {
	Recorded uint64  `json:"recorded"`
	Dropped  uint64  `json:"dropped"`
	Events   []Event `json:"events"`
}

// WriteJSON writes the recorder's Dump as one indented JSON document.
// A nil recorder writes an empty dump, keeping error-path callers
// unconditional.
func (r *Recorder) WriteJSON(w io.Writer) error {
	d := Dump{Recorded: r.Total(), Dropped: r.Dropped(), Events: r.Snapshot()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// SetDumpPath arms automatic postmortem dumping: the first DumpOnOutcome
// call reporting a failed or degraded run writes the ring to path.
func (r *Recorder) SetDumpPath(path string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.dumpDst = path
	r.mu.Unlock()
}

// DumpOnOutcome implements the "dump automatically on any error/degraded
// run" contract: when the run failed (err != nil) or degraded, and a dump
// path is armed, the ring is written there exactly once. It returns the
// path written, or "" when nothing was dumped.
func (r *Recorder) DumpOnOutcome(err error, degraded bool) (string, error) {
	if r == nil || (err == nil && !degraded) {
		return "", nil
	}
	r.mu.Lock()
	path := r.dumpDst
	already := r.dumped
	if path != "" {
		r.dumped = true
	}
	r.mu.Unlock()
	if path == "" || already {
		return "", nil
	}
	f, cerr := os.Create(path)
	if cerr != nil {
		return "", cerr
	}
	if werr := r.WriteJSON(f); werr != nil {
		f.Close()
		return "", werr
	}
	return path, f.Close()
}
