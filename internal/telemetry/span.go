package telemetry

import (
	"sync"
	"time"
)

// Span is one node of the hierarchical wall-time tree: a named stage with
// a duration and ordered children. Spans are explicit (no goroutine-local
// context): a stage holds its span and creates children for sub-stages,
// which keeps attribution unambiguous across the simulated MPI ranks. A
// nil *Span is a no-op handle, and Child on a nil span returns nil, so a
// whole instrumented call tree degrades to nil checks when telemetry is
// off. An ended span is closed for business the same way: Child on it
// returns nil and AddChild is a no-op, so late stragglers cannot mutate
// a tree that has already been snapshotted.
type Span struct {
	c     *Collector
	name  string
	start time.Time

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	children []*Span
	virtual  bool // duration supplied by AddChild; no wall-clock start
}

// Span starts a new root-level span.
func (c *Collector) Span(name string) *Span {
	if c == nil {
		return nil
	}
	s := &Span{c: c, name: name, start: c.clock()}
	c.mu.Lock()
	if !c.epochSet {
		c.epoch = s.start
		c.epochSet = true
	}
	c.spans = append(c.spans, s)
	c.mu.Unlock()
	return s
}

// isEnded reports whether End has fixed the span's duration.
func (s *Span) isEnded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ended
}

// Child starts a sub-span of s. Safe to call concurrently (the parallel
// ranks attach their phase spans to a shared parent). On a nil or ended
// span it returns nil, itself a valid no-op handle.
func (s *Span) Child(name string) *Span {
	if s == nil || s.isEnded() {
		return nil
	}
	child := &Span{c: s.c, name: name, start: s.c.clock()}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
	return child
}

// AddChild records an already-measured sub-stage as a completed child
// span. Used where the duration comes from elsewhere (e.g. a virtual
// clock segment of the MPI simulator) rather than from this package's
// wall clock. On a nil or ended span it is a no-op.
func (s *Span) AddChild(name string, d time.Duration) {
	if s == nil || s.isEnded() {
		return
	}
	child := &Span{c: s.c, name: name, dur: d, ended: true, virtual: true}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
}

// End fixes the span's duration. Ending twice keeps the first duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := s.c.clock()
	s.mu.Lock()
	if !s.ended {
		s.dur = now.Sub(s.start)
		s.ended = true
	}
	s.mu.Unlock()
}

// snapshot copies the subtree under lock. Unended spans report the
// duration accumulated so far. Start offsets are relative to epoch (the
// collector's first root span start); virtual spans, which have no wall
// start, export StartNS = -1.
func (s *Span) snapshot(now, epoch time.Time) SpanSnapshot {
	s.mu.Lock()
	d := s.dur
	if !s.ended {
		d = now.Sub(s.start)
	}
	virtual := s.virtual
	kids := make([]*Span, len(s.children))
	copy(kids, s.children)
	s.mu.Unlock()
	out := SpanSnapshot{Name: s.name, DurationNS: int64(d)}
	if virtual {
		out.StartNS = -1
	} else {
		out.StartNS = int64(s.start.Sub(epoch))
	}
	for _, k := range kids {
		out.Children = append(out.Children, k.snapshot(now, epoch))
	}
	return out
}
