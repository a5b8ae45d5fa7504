package parallel

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/fixed"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// TestDistributedGhostStragglerRecovers injects delivery delays into the
// ghost exchanges and checks the deadline/retry policy rides them out:
// the run completes, produces the same bytes as a clean run, and the
// stragglers show up in telemetry.
func TestDistributedGhostStragglerRecovers(t *testing.T) {
	f := smooth2D(7, 48, 48)
	tr, err := fixed.Fit(f.Components()...)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Tau: 0.01}
	grid := []int{2, 2}
	clean, err := CompressDistributed(f.Dims(), f.Components(), grid, tr, opts, RatioOriented, mpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	inj := faultinject.New(faultinject.Config{
		Seed:  5,
		Prob:  [faultinject.NumKinds]float64{faultinject.KindDelay: 0.5},
		Delay: 15 * time.Millisecond,
	})
	res, err := CompressDistributed(f.Dims(), f.Components(), grid, tr, opts, RatioOriented, mpi.Config{
		Tel: tel, Inject: inj,
		RecvTimeout: 5 * time.Millisecond, RecvRetries: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if inj.Fired(faultinject.KindDelay) == 0 {
		t.Fatal("no delays fired at p=0.5")
	}
	if tel.Counter("mpi.stragglers").Value() == 0 {
		t.Fatal("stragglers not recorded")
	}
	for r := range clean.Blobs {
		if string(res.Blobs[r]) != string(clean.Blobs[r]) {
			t.Fatalf("rank %d bytes differ after straggler recovery", r)
		}
	}
}

// TestDistributedGhostTimeoutFails pins the unrecoverable case: a delay
// past the full deadline budget surfaces as a typed *mpi.TimeoutError
// from the driver, not a hang and not a bad archive.
func TestDistributedGhostTimeoutFails(t *testing.T) {
	f := smooth2D(7, 48, 48)
	tr, err := fixed.Fit(f.Components()...)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Config{
		Seed:  9,
		Prob:  [faultinject.NumKinds]float64{faultinject.KindDelay: 1},
		Delay: 200 * time.Millisecond,
	})
	_, err = CompressDistributed(f.Dims(), f.Components(), []int{2, 2}, tr,
		core.Options{Tau: 0.01}, RatioOriented, mpi.Config{
			Inject:      inj,
			RecvTimeout: 2 * time.Millisecond, RecvRetries: 1,
		})
	var te *mpi.TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("want *mpi.TimeoutError, got %v", err)
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
