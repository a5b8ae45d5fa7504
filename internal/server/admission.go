// Admission control: a semaphore sized off the shared-memory worker
// pool fronted by a bounded wait queue. Requests beyond the queue are
// shed immediately with 429 + Retry-After — the daemon's answer to
// overload is a fast, honest no, never an unbounded backlog that turns
// into collapse. The Retry-After hint is derived from the measured
// request latency (EWMA) and the current backlog, so well-behaved
// clients back off roughly as long as the queue needs to clear.

package server

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// SaturatedError is the typed shed verdict: the admission queue is full.
// The HTTP layer maps it to 429 with the suggested Retry-After.
type SaturatedError struct {
	Inflight   int
	Queued     int
	RetryAfter time.Duration
}

func (e *SaturatedError) Error() string {
	return fmt.Sprintf("server: saturated (%d in flight, %d queued); retry in %v",
		e.Inflight, e.Queued, e.RetryAfter)
}

// admission is the bounded-queue semaphore.
type admission struct {
	permits  chan struct{}
	inflight int
	queueCap int
	queued   atomic.Int64
	// ewmaNS tracks recent request wall time for the Retry-After
	// estimate; seeded at one second until real measurements arrive.
	ewmaNS atomic.Int64
}

func newAdmission(inflight, queue int) *admission {
	if inflight < 1 {
		inflight = 1
	}
	if queue < 0 {
		queue = 0
	}
	a := &admission{
		permits:  make(chan struct{}, inflight),
		inflight: inflight,
		queueCap: queue,
	}
	a.ewmaNS.Store(int64(time.Second))
	return a
}

// acquire takes a permit, waiting in the bounded queue when the daemon
// is busy. It returns a release function on success; a *SaturatedError
// when the queue is full (shed now); or the context's error when the
// caller died while queued.
func (a *admission) acquire(ctx context.Context) (func(), error) {
	select {
	case a.permits <- struct{}{}:
		return a.releaseFunc(), nil
	default:
	}
	// Busy: try to queue. The counter is advisory — a burst may
	// transiently overshoot by a few waiters — but the bound holds on
	// average and shedding stays O(1) with no lock.
	if q := a.queued.Add(1); q > int64(a.queueCap) {
		a.queued.Add(-1)
		return nil, &SaturatedError{
			Inflight:   a.inflight,
			Queued:     int(q - 1),
			RetryAfter: a.retryAfter(),
		}
	}
	defer a.queued.Add(-1)
	select {
	case a.permits <- struct{}{}:
		return a.releaseFunc(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// releaseFunc returns the permit and feeds the request's wall time into
// the latency EWMA. Idempotent: a second call is a no-op.
func (a *admission) releaseFunc() func() {
	start := time.Now()
	var done atomic.Bool
	return func() {
		if !done.CompareAndSwap(false, true) {
			return
		}
		a.observe(time.Since(start))
		<-a.permits
	}
}

// observe folds one request duration into the EWMA (α = 1/4).
func (a *admission) observe(d time.Duration) {
	for {
		old := a.ewmaNS.Load()
		next := old + (int64(d)-old)/4
		if next < int64(time.Millisecond) {
			next = int64(time.Millisecond)
		}
		if a.ewmaNS.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfter estimates how long until a queue slot frees: the backlog
// ahead of a new arrival divided by the service rate, floored at one
// second so clients never busy-loop.
func (a *admission) retryAfter() time.Duration {
	backlog := a.queued.Load() + int64(a.inflight)
	est := time.Duration(a.ewmaNS.Load()) * time.Duration(backlog) / time.Duration(a.inflight)
	if est < time.Second {
		est = time.Second
	}
	if est > time.Minute {
		est = time.Minute
	}
	return est
}

// busy reports the permits currently held.
func (a *admission) busy() int { return len(a.permits) }
