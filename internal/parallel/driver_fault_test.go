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
	grid := Grid2D{PX: 2, PY: 2}
	clean, err := CompressDistributed2D(f, tr, opts, grid, RatioOriented, mpi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	inj := faultinject.New(faultinject.Config{
		Seed:  5,
		Prob:  [faultinject.NumKinds]float64{faultinject.KindDelay: 0.5},
		Delay: 15 * time.Millisecond,
	})
	res, err := CompressDistributed2D(f, tr, opts, grid, RatioOriented, mpi.Config{
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
	_, err = CompressDistributed2D(f, tr, core.Options{Tau: 0.01}, Grid2D{PX: 2, PY: 2},
		RatioOriented, mpi.Config{
			Inject:      inj,
			RecvTimeout: 2 * time.Millisecond, RecvRetries: 1,
		})
	var te *mpi.TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("want *mpi.TimeoutError, got %v", err)
	}
}
