package telemetry

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatal("nil collector must report disabled")
	}
	ctr := c.Counter("x")
	ctr.Inc()
	ctr.Add(5)
	if ctr.Value() != 0 {
		t.Fatal("nil counter must stay zero")
	}
	g := c.Gauge("g")
	g.Set(3)
	g.SetMax(9)
	if g.Value() != 0 {
		t.Fatal("nil gauge must stay zero")
	}
	h := c.Histogram("h")
	h.Observe(42)
	if h.Count() != 0 {
		t.Fatal("nil histogram must stay empty")
	}
	sp := c.Span("root")
	sub := sp.Child("sub")
	sub.AddChild("leaf", time.Second)
	sub.End()
	sp.End()
	c.SetClock(time.Now)
	snap := c.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Spans) != 0 {
		t.Fatal("nil collector snapshot must be empty")
	}
}

func TestRegistryReturnsSameInstrument(t *testing.T) {
	c := New()
	if c.Counter("a") != c.Counter("a") {
		t.Error("same counter name must resolve to the same handle")
	}
	if c.Gauge("a") != c.Gauge("a") {
		t.Error("same gauge name must resolve to the same handle")
	}
	if c.Histogram("a") != c.Histogram("a") {
		t.Error("same histogram name must resolve to the same handle")
	}
}

// TestConcurrentUpdates exercises every instrument from many goroutines;
// run with -race.
func TestConcurrentUpdates(t *testing.T) {
	c := New()
	ctr := c.Counter("ctr")
	g := c.Gauge("g")
	h := c.Histogram("h")
	root := c.Span("root")
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sp := root.Child("worker")
			for i := 1; i <= perWorker; i++ {
				ctr.Inc()
				g.SetMax(int64(w*perWorker + i))
				h.Observe(int64(i))
				// Interleave registry lookups with updates.
				c.Counter("ctr").Add(1)
			}
			sp.End()
		}(w)
	}
	wg.Wait()
	root.End()
	if got := ctr.Value(); got != 2*workers*perWorker {
		t.Errorf("counter = %d, want %d", got, 2*workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Errorf("gauge max = %d, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	snap := c.Snapshot()
	if len(snap.Spans) != 1 || len(snap.Spans[0].Children) != workers {
		t.Errorf("span tree: got %d roots, %d children", len(snap.Spans), len(snap.Spans[0].Children))
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 3}, {5, 4}, {8, 4}, {9, 5},
	}
	for _, tc := range cases {
		if got := bucketIndex(tc.v); got != tc.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
	h := &Histogram{}
	for _, v := range []int64{1, 2, 3, 100, -7} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 5 || s.Sum != 99 || s.Min != -7 || s.Max != 100 {
		t.Errorf("snapshot = %+v", s)
	}
	// Buckets: ≤0, then one per power-of-two range up to (64,128].
	want := []Bucket{{0, 1}, {1, 1}, {2, 1}, {4, 1}, {128, 1}}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", s.Buckets)
	}
	for i, b := range want {
		if s.Buckets[i] != b {
			t.Errorf("bucket %d = %+v, want %+v", i, s.Buckets[i], b)
		}
	}
}

// TestHistogramConcurrentFirstObservations releases two observers of a
// fresh histogram together, over and over: whichever observes first, the
// snapshot keeps both the minimum and the maximum. An empty histogram
// still reports a zero min and max.
func TestHistogramConcurrentFirstObservations(t *testing.T) {
	if s := (&Histogram{}).snapshot(); s.Count != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	const trials = 100000
	bad := 0
	for i := 0; i < trials; i++ {
		h := &Histogram{}
		var ready atomic.Int32
		var wg sync.WaitGroup
		for _, v := range []int64{5, 100} {
			wg.Add(1)
			go func(v int64) {
				defer wg.Done()
				// Spin barrier: both observers leave it together.
				ready.Add(1)
				for ready.Load() < 2 {
					runtime.Gosched()
				}
				h.Observe(v)
			}(v)
		}
		wg.Wait()
		if s := h.snapshot(); s.Min != 5 || s.Max != 100 || s.Count != 2 {
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d trials lost the min or max of two concurrent first observations", bad, trials)
	}
}

// TestHistogramObserveN: ObserveN(v, n) leaves the same snapshot as n
// calls of Observe(v), and n ≤ 0 records nothing.
func TestHistogramObserveN(t *testing.T) {
	batched, single := &Histogram{}, &Histogram{}
	for _, o := range []struct{ v, n int64 }{{3, 4}, {-2, 1}, {900, 3}, {7, 0}, {8, -1}} {
		batched.ObserveN(o.v, o.n)
		for i := int64(0); i < o.n; i++ {
			single.Observe(o.v)
		}
	}
	b, s := batched.snapshot(), single.snapshot()
	if b.Count != 8 || b.Count != s.Count || b.Sum != s.Sum || b.Min != s.Min || b.Max != s.Max ||
		b.P50 != s.P50 || b.P90 != s.P90 || len(b.Buckets) != len(s.Buckets) {
		t.Fatalf("ObserveN snapshot %+v, Observe snapshot %+v", b, s)
	}
	for i := range b.Buckets {
		if b.Buckets[i] != s.Buckets[i] {
			t.Fatalf("bucket %d: ObserveN %+v, Observe %+v", i, b.Buckets[i], s.Buckets[i])
		}
	}
}

// fakeClock advances a fixed step on every reading, making span durations
// (and therefore the JSON document) fully deterministic.
func fakeClock(step time.Duration) func() time.Time {
	t0 := time.Unix(0, 0)
	n := 0
	return func() time.Time {
		t := t0.Add(time.Duration(n) * step)
		n++
		return t
	}
}

const goldenJSON = `{
  "counters": {
    "core.2d.nospec.lossless": 2,
    "core.2d.nospec.spec_trials": 7
  },
  "gauges": {
    "run.ranks": 4
  },
  "histograms": {
    "core.2d.bound_exp": {
      "count": 3,
      "sum": 13,
      "min": 1,
      "max": 8,
      "p50": 3,
      "p90": 7,
      "p99": 8,
      "buckets": [
        {
          "hi": 1,
          "n": 1
        },
        {
          "hi": 4,
          "n": 1
        },
        {
          "hi": 8,
          "n": 1
        }
      ]
    }
  },
  "spans": [
    {
      "name": "compress",
      "duration_ns": 3000000,
      "children": [
        {
          "name": "cp-precompute",
          "start_ns": 1000000,
          "duration_ns": 1000000,
          "children": [
            {
              "name": "exchange",
              "start_ns": -1,
              "duration_ns": 5000000
            }
          ]
        }
      ]
    }
  ]
}
`

func TestGoldenJSON(t *testing.T) {
	c := New()
	c.SetClock(fakeClock(time.Millisecond))
	sp := c.Span("compress")         // clock reading 0: starts at t=0
	sub := sp.Child("cp-precompute") // clock reading 1: starts at t=1ms
	sub.AddChild("exchange", 5*time.Millisecond)
	sub.End() // clock reading 2: ends at t=2ms → 1ms
	sp.End()  // clock reading 3: ends at t=3ms → 3ms
	c.Counter("core.2d.nospec.spec_trials").Add(7)
	c.Counter("core.2d.nospec.lossless").Add(2)
	c.Gauge("run.ranks").Set(4)
	h := c.Histogram("core.2d.bound_exp")
	for _, v := range []int64{1, 4, 8} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != goldenJSON {
		t.Errorf("JSON mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, goldenJSON)
	}
	// A second snapshot of the same collector state yields the same
	// metric values (spans of an ended tree are fixed too, but each
	// snapshot reads the injected clock once).
	snap := c.Snapshot()
	if snap.Counters["core.2d.nospec.spec_trials"] != 7 {
		t.Error("snapshot must be repeatable")
	}
}

func TestWriteTextRendersTreeAndMetrics(t *testing.T) {
	c := New()
	c.SetClock(fakeClock(time.Millisecond))
	sp := c.Span("compress")
	sub := sp.Child("derive")
	sub.End()
	sp.End()
	c.Counter("a.count").Add(3)
	c.Gauge("b.gauge").Set(9)
	c.Histogram("c.hist").Observe(5)
	var buf bytes.Buffer
	if err := c.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"compress", "  derive", "a.count", "b.gauge", "c.hist"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestEncodeJSONLine(t *testing.T) {
	var buf bytes.Buffer
	err := EncodeJSONLine(&buf, struct {
		TP int `json:"tp"`
		FP int `json:"fp"`
	}{3, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != `{"tp":3,"fp":0}`+"\n" {
		t.Errorf("EncodeJSONLine = %q", got)
	}
}

func TestUnendedSpanReportsElapsed(t *testing.T) {
	c := New()
	c.SetClock(fakeClock(time.Millisecond))
	c.Span("open") // t=0
	snap := c.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].DurationNS <= 0 {
		t.Errorf("open span should report elapsed time, got %+v", snap.Spans)
	}
}
