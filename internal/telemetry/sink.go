package telemetry

import (
	"encoding/json"
	"io"
)

// Snapshot is the exported state of a collector: every instrument by
// name, plus the span forest. Its JSON encoding is deterministic for a
// given set of recorded values — struct fields encode in declaration
// order and map keys are sorted by encoding/json — which is what makes
// metrics files diffable across runs and usable as golden test outputs.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
	Spans      []SpanSnapshot          `json:"spans,omitempty"`
}

// HistSnapshot summarizes one histogram. Buckets lists only non-empty
// buckets, in increasing value order. P50/P90/P99 are quantile estimates
// interpolated from the power-of-two buckets (see Quantile); all zero
// when the histogram is empty.
type HistSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	P50     int64    `json:"p50"`
	P90     int64    `json:"p90"`
	P99     int64    `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucket counts:
// the target rank q·count is located in the cumulative bucket walk and
// interpolated linearly between the bucket's bounds, then clamped to the
// exact [Min, Max]. The ≤0 bucket reports Min (its members are not
// resolvable further). Returns 0 for an empty histogram.
func (h HistSnapshot) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := float64(0)
	v := h.Max
	for _, b := range h.Buckets {
		n := float64(b.N)
		if cum+n >= rank {
			if b.Hi <= 0 {
				v = h.Min
				break
			}
			lo := b.Hi / 2
			if b.Hi == 1 {
				lo = 0
			}
			frac := 0.0
			if n > 0 {
				frac = (rank - cum) / n
			}
			v = lo + int64(frac*float64(b.Hi-lo)+0.5)
			break
		}
		cum += n
	}
	if v < h.Min {
		v = h.Min
	}
	if v > h.Max {
		v = h.Max
	}
	return v
}

// Bucket is one non-empty power-of-two histogram bucket: Hi is the
// inclusive upper bound (0 for the ≤0 bucket), N the observation count.
type Bucket struct {
	Hi int64 `json:"hi"`
	N  int64 `json:"n"`
}

// SpanSnapshot is one node of the exported span tree. StartNS is the
// span's start offset relative to the collector's epoch (the first root
// span's start), or -1 for virtual spans recorded via AddChild, which
// carry a duration but no wall-clock start.
type SpanSnapshot struct {
	Name       string         `json:"name"`
	StartNS    int64          `json:"start_ns,omitempty"`
	DurationNS int64          `json:"duration_ns"`
	Children   []SpanSnapshot `json:"children,omitempty"`
}

// Snapshot exports the collector's current state. A nil collector yields
// a zero snapshot.
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	now := c.clock()
	c.mu.Lock()
	counters := make(map[string]*Counter, len(c.counters))
	for n, ctr := range c.counters {
		counters[n] = ctr
	}
	gauges := make(map[string]*Gauge, len(c.gauges))
	for n, g := range c.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(c.hists))
	for n, h := range c.hists {
		hists[n] = h
	}
	spans := make([]*Span, len(c.spans))
	copy(spans, c.spans)
	epoch := c.epoch
	c.mu.Unlock()

	var snap Snapshot
	if len(counters) > 0 {
		snap.Counters = make(map[string]int64, len(counters))
		for n, ctr := range counters {
			snap.Counters[n] = ctr.Value()
		}
	}
	if len(gauges) > 0 {
		snap.Gauges = make(map[string]int64, len(gauges))
		for n, g := range gauges {
			snap.Gauges[n] = g.Value()
		}
	}
	if len(hists) > 0 {
		snap.Histograms = make(map[string]HistSnapshot, len(hists))
		for n, h := range hists {
			snap.Histograms[n] = h.snapshot()
		}
	}
	for _, s := range spans {
		snap.Spans = append(snap.Spans, s.snapshot(now, epoch))
	}
	return snap
}

func (h *Histogram) snapshot() HistSnapshot {
	out := HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
	}
	if out.Count > 0 {
		out.Min = fromKey(^h.lo.Load())
		out.Max = fromKey(h.hi.Load())
	}
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		hi := int64(0)
		if i > 0 {
			hi = 1 << uint(i-1)
		}
		out.Buckets = append(out.Buckets, Bucket{Hi: hi, N: n})
	}
	if out.Count > 0 {
		out.P50 = out.Quantile(0.50)
		out.P90 = out.Quantile(0.90)
		out.P99 = out.Quantile(0.99)
	}
	return out
}

// WriteJSON writes the snapshot as one indented, deterministic JSON
// document.
func (c *Collector) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c.Snapshot())
}

// EncodeJSONLine writes v as a single compact JSON line followed by a
// newline. Determinism comes from encoding/json's field-order and
// sorted-map-key guarantees; CLI summaries (topozip verify) and the
// metrics files share this writer.
func EncodeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
