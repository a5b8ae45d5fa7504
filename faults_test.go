package repro

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/faultinject"
	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/integrity"
	"repro/internal/mpi"
	"repro/internal/parallel"
	"repro/internal/shm"
)

// TestFaultSoak sweeps seeds over the fault-injected pipeline and pins
// the failure contract end to end: every run must finish with a clean
// typed error or with correct output (byte-equal to a clean run, or
// topology-preserving when slabs degraded to lossless) — never a panic,
// never silently corrupted data. This is the `make faults` gate.
func TestFaultSoak(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}

	// Recoverable faults: an injected worker panic degrades its slab to
	// the lossless escape encoding. The run must complete and the decoded
	// field must preserve all critical points; with no degradation the
	// container is byte-equal to clean.
	t.Run("shm-panic", func(t *testing.T) {
		for seed := int64(0); seed < int64(seeds); seed++ {
			rng := rand.New(rand.NewSource(4000 + seed))
			f := randomField2D(rng, 40+rng.Intn(24), 36+rng.Intn(16))
			tr, err := fixed.Fit(f.U, f.V)
			if err != nil {
				t.Fatal(err)
			}
			opts := core.Options{Tau: 0.02, Spec: core.ST2}
			po := shm.Options{Slabs: 4}
			clean, err := shm.Compress(field.Mem2D(f), tr, opts, po)
			if err != nil {
				t.Fatalf("seed %d: clean run: %v", seed, err)
			}
			po.Faults = faultinject.New(faultinject.Config{
				Seed: uint64(seed),
				Prob: [faultinject.NumKinds]float64{faultinject.KindPanic: 0.5},
			})
			res, err := shm.Compress(field.Mem2D(f), tr, opts, po)
			if err != nil {
				t.Fatalf("seed %d: faulted run must degrade, not fail: %v", seed, err)
			}
			if len(res.Degraded) == 0 && !bytes.Equal(res.Blob, clean.Blob) {
				t.Fatalf("seed %d: no degradation but bytes differ from clean run", seed)
			}
			g := field.NewField2D(f.NX, f.NY)
			if err := shm.Decompress(res.Blob, 0, field.Mem2D(g)); err != nil {
				t.Fatalf("seed %d: decode: %v", seed, err)
			}
			rep := cp.Compare(cp.DetectField2D(f, tr), cp.DetectField2D(g, tr))
			if !rep.Preserved() {
				t.Fatalf("seed %d: critical points lost (degraded=%v): %+v",
					seed, res.Degraded, rep)
			}
		}
	})

	// Data corruption: injected bit flips and truncations of slab blobs
	// must surface as errors on decode — a successful decode is only
	// acceptable when it is byte-identical to the clean run's output
	// (i.e. the corruption missed). At least one seed must exercise the
	// CRC path with a typed *integrity.IntegrityError.
	t.Run("shm-corruption", func(t *testing.T) {
		typed := 0
		for seed := int64(0); seed < int64(seeds); seed++ {
			rng := rand.New(rand.NewSource(5000 + seed))
			f := randomField2D(rng, 40+rng.Intn(24), 36+rng.Intn(16))
			tr, err := fixed.Fit(f.U, f.V)
			if err != nil {
				t.Fatal(err)
			}
			opts := core.Options{Tau: 0.02}
			po := shm.Options{Slabs: 4}
			clean, err := shm.Compress(field.Mem2D(f), tr, opts, po)
			if err != nil {
				t.Fatal(err)
			}
			want := field.NewField2D(f.NX, f.NY)
			if err := shm.Decompress(clean.Blob, 0, field.Mem2D(want)); err != nil {
				t.Fatal(err)
			}
			kind := faultinject.KindBitFlip
			if seed%2 == 1 {
				kind = faultinject.KindTruncate
			}
			var prob [faultinject.NumKinds]float64
			prob[kind] = 1
			inj := faultinject.New(faultinject.Config{
				Seed:     uint64(seed),
				Prob:     prob,
				MaxFires: 1,
			})
			po.Faults = inj
			res, err := shm.Compress(field.Mem2D(f), tr, opts, po)
			if err != nil {
				t.Fatalf("seed %d: compress: %v", seed, err)
			}
			if inj.Fired(kind) == 0 {
				t.Fatalf("seed %d: injector never fired at p=1", seed)
			}
			g := field.NewField2D(f.NX, f.NY)
			if err := shm.Decompress(res.Blob, 0, field.Mem2D(g)); err != nil {
				var ie *integrity.IntegrityError
				if errors.As(err, &ie) {
					if ie.Slab < 0 {
						t.Fatalf("seed %d: integrity error without slab: %v", seed, ie)
					}
					typed++
				}
				continue // clean typed error: contract satisfied
			}
			if !bytes.Equal(float32Bytes(g.U), float32Bytes(want.U)) ||
				!bytes.Equal(float32Bytes(g.V), float32Bytes(want.V)) {
				t.Fatalf("seed %d: silent corruption: decode succeeded with wrong data", seed)
			}
		}
		if typed == 0 {
			t.Fatal("no seed surfaced a typed IntegrityError; CRC path untested")
		}
	})

	// Rank failures: a non-finite value anywhere in the field fails the
	// rank that owns it. The simulated machine must abort, so every
	// strategy returns a typed error naming the value's index in the
	// field instead of leaving the failed rank's neighbors waiting.
	t.Run("mpi-rank-failure", func(t *testing.T) {
		strats := []parallel.Strategy{parallel.Naive, parallel.LosslessBorders, parallel.RatioOriented}
		for seed := int64(0); seed < int64(seeds); seed++ {
			rng := rand.New(rand.NewSource(6000 + seed))
			f := randomField2D(rng, 40+rng.Intn(16), 40+rng.Intn(16))
			tr, err := fixed.Fit(f.Components()...)
			if err != nil {
				t.Fatal(err)
			}
			comps := [][]float32{slices.Clone(f.U), slices.Clone(f.V)}
			comp, index := rng.Intn(2), rng.Intn(len(f.U))
			comps[comp][index] = float32([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[seed%3])
			grid := []int{2 + rng.Intn(2), 2}
			strat := strats[seed%3]
			done := make(chan error, 1)
			go func() {
				_, err := parallel.CompressDistributed(f.Dims(), comps, grid, tr,
					core.Options{Tau: 0.01}, strat, mpi.Config{})
				done <- err
			}()
			select {
			case err = <-done:
			case <-time.After(20 * time.Second):
				t.Fatalf("seed %d, %v on %v: a failed rank hung the machine", seed, strat, grid)
			}
			var de *fixed.DomainError
			if !errors.As(err, &de) || de.Component != comp || de.Index != index {
				t.Fatalf("seed %d, %v on %v: want a *fixed.DomainError at component %d index %d, got %v",
					seed, strat, grid, comp, index, err)
			}
		}
	})
}

// float32Bytes views a float32 slice as its byte representation for
// exact (bit-level) comparison.
func float32Bytes(v []float32) []byte {
	b := make([]byte, 0, 4*len(v))
	for _, f := range v {
		u := math.Float32bits(f)
		b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return b
}
