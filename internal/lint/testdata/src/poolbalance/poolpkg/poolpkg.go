// Package poolpkg exercises permitbalance's sync.Pool rules: a Get must
// be Put on every path, its result must be retained, and a value that
// escapes must go to an owner the package Puts back.
package poolpkg

import "sync"

var bufPool = sync.Pool{New: func() interface{} { return new([]byte) }}

// orphanPool has a Get but no Put anywhere in the package.
var orphanPool = sync.Pool{New: func() interface{} { return new([]byte) }}

type holder struct{ buf *[]byte }

// maybe keeps the branches opaque to constant folding.
func maybe(v int) bool { return v > 0 }

func deferred(n int) int {
	b := bufPool.Get().(*[]byte)
	defer bufPool.Put(b)
	if maybe(n) {
		return 1 // deferred Put covers this exit: clean
	}
	return len(*b)
}

func allPaths(n int) int {
	b := bufPool.Get().(*[]byte)
	if maybe(n) {
		bufPool.Put(b)
		return n // branch Puts before returning: clean
	}
	bufPool.Put(b)
	return len(*b)
}

func earlyReturnLeak(n int) int {
	b := bufPool.Get().(*[]byte) // want "pool Get .bufPool. is not released on every path"
	if maybe(n) {
		return -1 // leaks b
	}
	bufPool.Put(b)
	return len(*b)
}

func fallOffEndLeak() {
	b := bufPool.Get().(*[]byte) // want "pool Get .bufPool. is not released on every path"
	_ = b
}

func discarded() {
	bufPool.Get() // want "result is not retained"
}

func discardedBlank() {
	_ = bufPool.Get() // want "result is not retained"
}

// transfer hands the buffer to a holder; release Puts it back, so
// ownership transfer is balanced at the package level.
func transfer() *holder {
	b := bufPool.Get().(*[]byte) // escape with package-level Put: clean
	return &holder{buf: b}
}

func (h *holder) release() {
	bufPool.Put(h.buf)
}

// orphanTransfer escapes into a holder, but nothing in the package
// ever Puts to orphanPool.
func orphanTransfer() *holder {
	b := orphanPool.Get().(*[]byte) // want "nothing in this package ever Puts"
	return &holder{buf: b}
}

func suppressed() {
	//lint:ignore permitbalance buffer intentionally retired from the pool
	b := bufPool.Get().(*[]byte)
	_ = b
}
