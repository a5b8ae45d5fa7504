// Package permitpkg exercises permitbalance: release funcs, semaphore
// permits, and pool gets must be released on every path, panics
// included; a pool value may not be discarded, nor escape from a
// package that never Puts it back.
package permitpkg

import (
	"context"
	"errors"
	"sync"
)

type gate struct {
	sem chan struct{}
}

// acquire is the admission idiom: take a slot, hand back the release
// closure. The send is excused because the function returns a func and
// the package receives from the channel (inside the closure).
func (g *gate) acquire(ctx context.Context) (func(), error) {
	select {
	case g.sem <- struct{}{}:
		return func() { <-g.sem }, nil
	case <-ctx.Done():
		return nil, errors.New("full")
	}
}

// maybe keeps the branches opaque to constant folding.
func maybe(v int) bool { return v > 0 }

// LeakOnBranch forgets the release on the early return.
func LeakOnBranch(g *gate, ctx context.Context, v int) error {
	release, err := g.acquire(ctx) // want "release func .acquire. is not released on every path"
	if err != nil {
		return err
	}
	if maybe(v) {
		return nil
	}
	release()
	return nil
}

// GoodDefer releases on every exit.
func GoodDefer(g *gate, ctx context.Context, v int) error {
	release, err := g.acquire(ctx)
	if err != nil {
		return err
	}
	defer release()
	if maybe(v) {
		return nil
	}
	return nil
}

// GoodHandoff passes the obligation to its caller.
func GoodHandoff(g *gate, ctx context.Context) func() {
	release, err := g.acquire(ctx)
	if err != nil {
		return nil
	}
	return release
}

// LeakSend takes a raw permit and drops it on one branch.
func LeakSend(g *gate, v int) {
	g.sem <- struct{}{} // want "permit send .sem. is not released on every path"
	if maybe(v) {
		return
	}
	<-g.sem
}

// GoodSend retires the permit on both branches.
func GoodSend(g *gate, v int) {
	g.sem <- struct{}{}
	defer func() { <-g.sem }()
	if maybe(v) {
		return
	}
}

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// orphanPool has a Get but no Put anywhere in the package.
var orphanPool = sync.Pool{New: func() any { return new([]byte) }}

type holder struct{ buf *[]byte }

// LeakAtPanic holds the pool value when the panic unwinds.
func LeakAtPanic(v int) {
	b := bufPool.Get().(*[]byte)
	if v < 0 {
		panic("negative") // want "pool Get .bufPool. still held at panic"
	}
	bufPool.Put(b)
}

// GoodPanicDefer defers the Put, so the panic path is covered.
func GoodPanicDefer(v int) {
	b := bufPool.Get().(*[]byte)
	defer bufPool.Put(b)
	if v < 0 {
		panic("negative")
	}
}

// LeakPool forgets the Put on the early return.
func LeakPool(v int) {
	b := bufPool.Get().(*[]byte) // want "pool Get .bufPool. is not released on every path"
	if maybe(v) {
		return
	}
	bufPool.Put(b)
}

// Discarded throws the pooled value away on the spot.
func Discarded() {
	bufPool.Get() // want "result is not retained"
}

// OrphanTransfer escapes into a holder, but nothing in the package
// ever Puts to orphanPool.
func OrphanTransfer() *holder {
	b := orphanPool.Get().(*[]byte) // want "nothing in this package ever Puts"
	return &holder{buf: b}
}
