package parallel

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fixed"
	"repro/internal/mpi"
)

// TestDistributedRankFailureAborts pins a rank whose input fails: a
// NaN, a +Inf or a value past a caller-built transform in one rank's
// block is a *fixed.DomainError naming the value's index in the field,
// under every strategy, returned within a guard deadline and with no
// goroutine left behind. Before the machine aborted on a failed rank,
// the failing rank's ratio-oriented neighbors waited for its ghosts
// forever.
func TestDistributedRankFailureAborts(t *testing.T) {
	f2 := smooth2D(7, 32, 32)
	f3 := smooth3D(7, 16)
	for _, tc := range []struct {
		name  string
		dims  []int
		comps [][]float32
		grid  []int
	}{
		{"2D 2x2", f2.Dims(), f2.Components(), []int{2, 2}},
		{"3D 2x1x2", f3.Dims(), f3.Components(), []int{2, 1, 2}},
	} {
		tr, err := fixed.Fit(tc.comps...)
		if err != nil {
			t.Fatal(err)
		}
		n := len(tc.comps[0])
		for _, bad := range []struct {
			name  string
			comp  int
			index int
			value float32
		}{
			{"NaN in the last rank", 0, n - 1, float32(math.NaN())},
			{"+Inf in rank 1", 1, tc.dims[0] - 1, float32(math.Inf(1))},
			{"past the transform in the last rank", len(tc.comps) - 1, n - 2 - tc.dims[0], 1e9},
		} {
			comps := make([][]float32, len(tc.comps))
			for c := range comps {
				comps[c] = slices.Clone(tc.comps[c])
			}
			comps[bad.comp][bad.index] = bad.value
			for _, strat := range []Strategy{Naive, LosslessBorders, RatioOriented} {
				before := runtime.NumGoroutine()
				done := make(chan error, 1)
				go func() {
					_, err := CompressDistributed(tc.dims, comps, tc.grid, tr, core.Options{Tau: 0.01}, strat, mpi.Config{})
					done <- err
				}()
				select {
				case err = <-done:
				case <-time.After(20 * time.Second):
					t.Fatalf("%s, %s, %v: no return: a failed rank left its neighbors waiting", tc.name, bad.name, strat)
				}
				var de *fixed.DomainError
				if !errors.As(err, &de) {
					t.Fatalf("%s, %s, %v: want a *fixed.DomainError, got %v", tc.name, bad.name, strat, err)
				}
				if de.Component != bad.comp || de.Index != bad.index {
					t.Errorf("%s, %s, %v: error names component %d index %d, want %d, %d",
						tc.name, bad.name, strat, de.Component, de.Index, bad.comp, bad.index)
				}
				for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
					if time.Now().After(deadline) {
						t.Fatalf("%s, %s, %v: goroutines leaked: %d -> %d", tc.name, bad.name, strat, before, runtime.NumGoroutine())
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
		}
	}
}

// TestDistributedCorruptInputFails pins the input checks that run before
// any rank starts: a malformed field, a rank grid of the wrong length or
// unusable decode dims is an error, never a panic inside a rank
// goroutine the caller cannot recover.
func TestDistributedCorruptInputFails(t *testing.T) {
	f := smooth2D(11, 32, 24)
	tr, err := fixed.Fit(f.Components()...)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Tau: 0.05}
	for _, tc := range []struct {
		name  string
		dims  []int
		comps [][]float32
		grid  []int
	}{
		{"short component", f.Dims(), [][]float32{f.U[:100], f.V}, []int{2, 2}},
		{"missing component", f.Dims(), [][]float32{f.U}, []int{2, 2}},
		{"grid of 3 for 2 dims", f.Dims(), f.Components(), []int{2, 2, 1}},
		{"1-dim field", []int{32 * 24}, [][]float32{f.U}, []int{2}},
		{"negative extent", []int{-32, -24}, f.Components(), []int{2, 2}},
	} {
		if _, err := CompressDistributed(tc.dims, tc.comps, tc.grid, tr, opts, RatioOriented, mpi.Config{}); err == nil {
			t.Errorf("compress, %s: want an error", tc.name)
		}
	}

	res, err := CompressDistributed(f.Dims(), f.Components(), []int{2, 2}, tr, opts, RatioOriented, mpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		dims, grid []int
	}{
		{"negative extent", []int{-4, 24}, []int{2, 2}},
		{"overflowing dims", []int{1 << 40, 1 << 40}, []int{2, 2}},
		{"grid of 1 for 2 dims", f.Dims(), []int{4}},
		{"dims of another field", []int{32, 26}, []int{2, 2}},
	} {
		if _, _, err := DecompressDistributed(res.Blobs, tc.dims, tc.grid, mpi.Config{}); err == nil {
			t.Errorf("decompress, %s: want an error", tc.name)
		}
	}
}
