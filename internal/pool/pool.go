// Package pool provides the one shared-memory fan-out/fan-in primitive of
// the repository. Every in-process loop over independent tasks — the
// slab decodes of the shared-memory pipeline (package shm), the pieces
// and seams of a whole-domain block's sweep and its containment
// precompute (package core), and the chunked critical-point scan
// (package cp) — routes through Do, so worker accounting, inline
// fallback, work distribution and panic propagation live in exactly one
// place. Pipelines whose goroutines hand work to each other (shm's
// windowed compress and its flusher, core's pipelined decode) and the
// simulated ranks of package mpi keep their own goroutines.
//
// The package sits below everything else (stdlib-only) because its
// callers span both sides of the core↔cp dependency.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count request: values <= 0 mean "use the
// host", i.e. runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Do executes run(i) for every task i in [0, n) on at most `workers`
// goroutines and returns when all tasks have finished. Tasks must be
// independent: the assignment of tasks to workers is nondeterministic
// (a shared counter, so finished workers steal remaining tasks), and any
// ordering of results must be imposed by the caller indexing into a
// pre-sized slice. With workers <= 1 (or a single task) the loop runs
// inline on the calling goroutine — the deterministic baseline that
// parallel runs must reproduce byte for byte.
//
// A panic in a task stops the hand-out of further tasks and is raised
// again on the caller once every worker has returned, so a recover
// around Do (shm's per-slab barrier) sees it as if the task had run on
// the caller's goroutine.
func Do(workers, n int, run func(task int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
		return
	}
	var next atomic.Int64
	var failed atomic.Bool
	var once sync.Once
	var failure any
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					once.Do(func() { failure = p })
					failed.Store(true)
				}
			}()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		// invariant: this raises again a panic a task raised, where the
		// task would have raised it on the caller; Do adds none of its
		// own, so no input reaches it that does not reach the task's.
		panic(failure)
	}
}
