// Package telemetry is the instrumentation substrate of the compression
// pipeline: a registry of named counters, gauges, and power-of-two-bucket
// histograms, plus stage-scoped spans forming a hierarchical wall-time
// tree (see span.go) and deterministic text/JSON renderers (see sink.go).
//
// The package is stdlib-only and allocation-conscious. Its central design
// point is that a disabled collector is a nil pointer: every accessor and
// every mutator is safe to call on a nil receiver and short-circuits
// immediately, so an instrumented hot loop pays exactly one nil check per
// event when telemetry is off. Instruments are resolved by name once, at
// setup time (e.g. in an encoder constructor), and the resulting possibly
// nil handles are used unconditionally afterwards:
//
//	ctr := tel.Counter("core.2d.spec_trials") // nil when tel == nil
//	for ... { ctr.Inc() }                     // no-op nil check when disabled
//
// All instruments are safe for concurrent use; the simulated MPI ranks
// update shared counters from many goroutines.
package telemetry

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Collector owns the instrument registry and the span tree of one run.
// The zero value is not usable; construct with New. A nil *Collector is
// the disabled state: all methods are nil-safe no-ops.
type Collector struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    []*Span          // root-level spans, in creation order
	now      func() time.Time // injectable clock for deterministic tests

	// epoch is the start time of the first root span; every span's
	// exported start offset (SpanSnapshot.StartNS) is relative to it, so
	// trace exports are deterministic under an injected clock.
	epoch    time.Time
	epochSet bool
}

// New returns an enabled collector.
func New() *Collector {
	return &Collector{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		now:      time.Now,
	}
}

// Enabled reports whether the collector records anything.
func (c *Collector) Enabled() bool { return c != nil }

// SetClock replaces the wall clock, for deterministic span durations in
// tests.
func (c *Collector) SetClock(now func() time.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.now = now
	c.mu.Unlock()
}

func (c *Collector) clock() time.Time {
	c.mu.Lock()
	now := c.now
	c.mu.Unlock()
	return now()
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op handle) on a nil collector.
func (c *Collector) Counter(name string) *Counter {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ctr, ok := c.counters[name]
	if !ok {
		ctr = &Counter{}
		c.counters[name] = ctr
	}
	return ctr
}

// Gauge returns the named gauge, creating it on first use.
func (c *Collector) Gauge(name string) *Gauge {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.gauges[name]
	if !ok {
		g = &Gauge{}
		c.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (c *Collector) Histogram(name string) *Histogram {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.hists[name]
	if !ok {
		h = &Histogram{}
		c.hists[name] = h
	}
	return h
}

// sortedNames returns the keys of a map in lexicographic order.
func sortedNames[T any](m map[string]T) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Counter is a monotonically increasing event count. A nil *Counter is a
// no-op handle.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-writer-wins instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// SetMax raises the gauge to v if v is greater than the current value.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on a nil handle).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of power-of-two histogram buckets: bucket 0
// holds observations ≤ 0, bucket k holds (2^(k-1), 2^k].
const histBuckets = 65

// Histogram counts observations in power-of-two buckets. It tracks count,
// sum, min, and max exactly; the buckets give the shape of the
// distribution without per-value storage.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Int64
	// lo and hi hold the minimum and maximum as order-preserving keys
	// (ordKey) that only ever rise: lo stores ^ordKey(min), hi stores
	// ordKey(max). Their zero values decode to MaxInt64 and MinInt64, the
	// identities of min and max, so every observer — the first included —
	// updates them with compare-and-swap alone, and no seeding store can
	// overwrite a racing observer's value.
	lo, hi  atomic.Uint64
	buckets [histBuckets]atomic.Int64
}

// ordKey maps int64 onto uint64 preserving order (MinInt64 → 0);
// fromKey inverts it.
func ordKey(v int64) uint64  { return uint64(v) ^ 1<<63 }
func fromKey(k uint64) int64 { return int64(k ^ 1<<63) }

// raise lifts a to k if k is larger.
func raise(a *atomic.Uint64, k uint64) {
	for {
		cur := a.Load()
		if k <= cur || a.CompareAndSwap(cur, k) {
			return
		}
	}
}

// bucketIndex maps an observation to its bucket: 0 for v ≤ 0; bucket
// k ≥ 1 covers (2^(k-2), 2^(k-1)], so the bucket's inclusive upper bound
// is 2^(k-1).
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v-1)) + 1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n observations of the value v at once, exactly as n
// calls of Observe(v) would; n ≤ 0 records nothing. It lets a hot loop
// batch its observations per value and publish them in one go.
func (h *Histogram) ObserveN(v, n int64) {
	if h == nil || n <= 0 {
		return
	}
	raise(&h.lo, ^ordKey(v))
	raise(&h.hi, ordKey(v))
	h.sum.Add(v * n)
	h.buckets[bucketIndex(v)].Add(n)
	// Counted last: a snapshot that reads a positive count then also
	// reads a min and max some observer has already set.
	h.count.Add(n)
}

// Count returns the number of observations (0 on a nil handle).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile estimates the q-quantile (q in [0,1]) of the recorded
// distribution from the power-of-two buckets, interpolating linearly
// inside the selected bucket and clamping to the exact [min, max]. The
// estimate is exact for q=0 and q=1 and carries at most one-bucket
// (factor-of-two) error elsewhere — enough to tell a 2µs p99 from a 2ms
// one. Returns 0 on a nil handle or an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	return h.snapshot().Quantile(q)
}
