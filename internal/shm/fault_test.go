package shm

import (
	"bytes"
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/flightrec"
	"repro/internal/integrity"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// TestSlabPanicDegradesOnce injects intermittent worker panics: each
// panicking slab degrades once to the lossless escape, and every slab
// whose successor did not degrade keeps its clean block byte for byte (a
// slab is a pure function of its own planes and its successor's seam
// plane, which a degraded successor hands over exactly). The decoded
// field keeps every critical point.
func TestSlabPanicDegradesOnce(t *testing.T) {
	f := datagen.Ocean(96, 72)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Tau: 0.01, Spec: core.ST2}
	clean, err := Compress(field.Mem2D(f), tr, opts, Options{Slabs: 6})
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Config{
		Seed: 11,
		Prob: [faultinject.NumKinds]float64{faultinject.KindPanic: 0.4},
	})
	res, err := Compress(field.Mem2D(f), tr, opts, Options{Slabs: 6, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degraded) == 0 || len(res.Degraded) == 6 {
		t.Fatalf("seed 11 at p=0.4 should degrade some slabs but not all, got %v", res.Degraded)
	}
	if res.Panics != len(res.Degraded) || inj.Fired(faultinject.KindPanic) != int64(res.Panics) {
		t.Fatalf("one panic per degraded slab: panics %d, fired %d, degraded %v",
			res.Panics, inj.Fired(faultinject.KindPanic), res.Degraded)
	}
	if res.DegradationReport() == "" {
		t.Fatal("degraded run should report its recoveries")
	}
	got, err := archive.OpenStream(bytes.NewReader(res.Blob), int64(len(res.Blob)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := archive.OpenStream(bytes.NewReader(clean.Blob), int64(len(clean.Blob)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if slices.Contains(res.Degraded, i) || slices.Contains(res.Degraded, i+1) {
			continue
		}
		g, err := got.ReadBlobInto(nil, i)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.ReadBlobInto(nil, i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("slab %d and its successor did not degrade but its block differs from the clean run", i)
		}
	}
	g, err := decode2D(res.Blob, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := cp.Compare(cp.DetectField2D(f, tr), cp.DetectField2D(g, tr))
	if rep.FP != 0 || rep.FN != 0 || rep.FT != 0 {
		t.Fatalf("degraded run lost critical points: %+v", rep)
	}
}

// TestSlabDegradationPreservesTopology makes every attempt of every slab
// panic, forcing all slabs onto the lossless escape fallback, and checks
// the acceptance contract of graceful degradation: the run completes,
// reports the degradation, and the decoded output preserves every
// critical point exactly (zero FP/FN/FT under the exact detector).
func TestSlabDegradationPreservesTopology(t *testing.T) {
	inj := func() *faultinject.Injector {
		return faultinject.New(faultinject.Config{
			Seed: 1,
			Prob: [faultinject.NumKinds]float64{faultinject.KindPanic: 1},
		})
	}
	tel := telemetry.New()
	t.Run("2d", func(t *testing.T) {
		f := datagen.Ocean(80, 64)
		tr, err := fixed.Fit(f.U, f.V)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Compress(field.Mem2D(f), tr, core.Options{Tau: 0.02, Spec: core.ST2}, Options{
			Slabs: 5, Faults: inj(), Tel: tel,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Degraded) != 5 {
			t.Fatalf("all 5 slabs should degrade, got %v", res.Degraded)
		}
		if res.Ratio() >= 1 {
			t.Logf("note: degraded ratio %.2f (lossless escapes are big)", res.Ratio())
		}
		g, err := decode2D(res.Blob, 0)
		if err != nil {
			t.Fatal(err)
		}
		rep := cp.Compare(cp.DetectField2D(f, tr), cp.DetectField2D(g, tr))
		if !rep.Preserved() {
			t.Fatalf("degraded run lost critical points: %+v", rep)
		}
		if got := tel.Counter("shm.compress2d.slab.degraded").Value(); got != 5 {
			t.Fatalf("degraded counter = %d, want 5", got)
		}
		if got := tel.Counter("shm.compress2d.slab.panics").Value(); got != 5 {
			t.Fatalf("panics counter = %d, want one per slab", got)
		}
	})
	t.Run("3d", func(t *testing.T) {
		f := datagen.Hurricane(24, 24, 20)
		tr, err := fixed.Fit(f.U, f.V, f.W)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Compress(field.Mem3D(f), tr, core.Options{Tau: 0.02}, Options{
			Slabs: 4, Faults: inj(), Tel: tel,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Degraded) != 4 {
			t.Fatalf("all 4 slabs should degrade, got %v", res.Degraded)
		}
		g, err := decode3D(res.Blob, 0)
		if err != nil {
			t.Fatal(err)
		}
		rep := cp.Compare(cp.DetectField3D(f, tr), cp.DetectField3D(g, tr))
		if !rep.Preserved() {
			t.Fatalf("degraded run lost critical points: %+v", rep)
		}
		if got := tel.Counter("shm.compress3d.slab.degraded").Value(); got != 4 {
			t.Fatalf("degraded counter = %d, want 4", got)
		}
	})
}

// TestSlabCorruptionDetected injects blob bit flips after encode and
// checks decompression reports a typed integrity error naming the slab —
// never silently wrong data.
func TestSlabCorruptionDetected(t *testing.T) {
	f := datagen.Ocean(96, 72)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Config{
		Seed: 3,
		Prob: [faultinject.NumKinds]float64{faultinject.KindBitFlip: 1},
		// One flip is enough to prove detection and keeps the failing
		// slab attributable.
		MaxFires: 1,
	})
	res, err := Compress(field.Mem2D(f), tr, core.Options{Tau: 0.01}, Options{Slabs: 6, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if inj.Fired(faultinject.KindBitFlip) != 1 {
		t.Fatal("bit flip did not fire")
	}
	g, err := decode2D(res.Blob, 0)
	if err == nil {
		// The decode survived a post-encode flip only if it decoded to
		// exactly the clean bytes, which a flipped bit cannot.
		_ = g
		t.Fatal("corrupted container decoded without error")
	}
	var ie *integrity.IntegrityError
	if !errors.As(err, &ie) {
		// Structural decode errors (e.g. flate framing) are acceptable
		// typed failures too, but the common case lands in the CRC.
		t.Logf("non-CRC typed error: %v", err)
		return
	}
	if ie.Slab < 0 {
		t.Fatalf("integrity error lacks slab attribution: %v", ie)
	}
}

// TestSlabTruncationDetected is the truncation variant.
func TestSlabTruncationDetected(t *testing.T) {
	f := datagen.Ocean(64, 48)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Config{
		Seed:     7,
		Prob:     [faultinject.NumKinds]float64{faultinject.KindTruncate: 1},
		MaxFires: 1,
	})
	res, err := Compress(field.Mem2D(f), tr, core.Options{Tau: 0.01}, Options{Slabs: 4, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decode2D(res.Blob, 0); err == nil {
		t.Fatal("truncated slab decoded without error")
	}
}

// TestFlightRecorderCapturesDegradation pins the postmortem contract: a
// faults-enabled degrading run leaves a flight-recorder event sequence
// naming each slab and its outcome — the injected fault, then exactly
// one recovered panic and one degradation per slab.
func TestFlightRecorderCapturesDegradation(t *testing.T) {
	f := datagen.Ocean(80, 64)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Config{
		Seed: 1,
		Prob: [faultinject.NumKinds]float64{faultinject.KindPanic: 1},
	})
	rec := flightrec.New(0)
	inj.SetRecorder(rec)
	res, err := Compress(field.Mem2D(f), tr, core.Options{Tau: 0.02, Spec: core.ST2}, Options{
		Slabs: 5, Faults: inj, Rec: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degraded) != 5 {
		t.Fatalf("all 5 slabs should degrade, got %v", res.Degraded)
	}
	events := rec.Snapshot()
	perSlab := make(map[int32][]flightrec.Kind)
	for _, ev := range events {
		// Window refill/evict bracket every slab's pass through the
		// streaming window regardless of outcome; this test asserts on
		// the encode lifecycle, where degradation is terminal.
		if ev.Kind == flightrec.KindWindowRefill || ev.Kind == flightrec.KindWindowEvict {
			continue
		}
		if ev.Slab >= 0 {
			perSlab[ev.Slab] = append(perSlab[ev.Slab], ev.Kind)
		}
	}
	for slab := int32(0); slab < 5; slab++ {
		kinds := perSlab[slab]
		if !slices.Equal(kinds, []flightrec.Kind{flightrec.KindPanic, flightrec.KindDegraded}) {
			t.Errorf("slab %d event kinds %v: want [panic degraded]", slab, kinds)
		}
	}
	// Injected faults are recorded too (armed via SetRecorder).
	var injected int
	for _, ev := range events {
		if ev.Kind == flightrec.KindFaultInjected {
			injected++
		}
	}
	if injected == 0 {
		t.Error("injector fires must appear in the flight recorder")
	}
	// And the DumpOnOutcome path writes exactly this sequence as JSON.
	path := t.TempDir() + "/postmortem.json"
	rec.SetDumpPath(path)
	written, err := rec.DumpOnOutcome(nil, len(res.Degraded) > 0)
	if err != nil || written != path {
		t.Fatalf("DumpOnOutcome = %q, %v", written, err)
	}
}

// TestInputErrorNotRetried: a value outside the transform's range fails
// the encode and the lossless fallback alike, so the slab returns its
// *fixed.DomainError at once — no degraded event — with the index
// re-based onto the whole field. The same holds for a block too thin to
// hold a cell.
func TestInputErrorNotRetried(t *testing.T) {
	f := datagen.Ocean(16, 32)
	tr, err := fixed.Fit(f.U[:16*10], f.V[:16*10]) // fitted on rows 0-9 only
	if err != nil {
		t.Fatal(err)
	}
	const bad = 323 // row 20, in slab 2 of 4
	f.V[bad] = 1e30
	rec := flightrec.New(0)
	po := Options{Slabs: 4, Workers: 2, Rec: rec}
	_, err = Compress(field.Mem2D(f), tr, core.Options{Tau: 0.01}, po)
	var de *fixed.DomainError
	if !errors.As(err, &de) || de.Component != 1 || de.Index != bad {
		t.Fatalf("err = %v, want *fixed.DomainError at component 1, global index %d", err, bad)
	}
	for _, ev := range rec.Snapshot() {
		if ev.Kind == flightrec.KindDegraded {
			t.Errorf("input error recorded a %v event for slab %d", ev.Kind, ev.Slab)
		}
	}

	thin := field.NewField2D(1, 32)
	rec = flightrec.New(0)
	po.Rec = rec
	_, err = Compress(field.Mem2D(thin), fixed.FromShift(10), core.Options{Tau: 0.01}, po)
	if !errors.As(err, &de) || de.Param != "nx" {
		t.Fatalf("1-wide field: err = %v, want *fixed.DomainError for nx", err)
	}
	for _, ev := range rec.Snapshot() {
		if ev.Kind == flightrec.KindDegraded {
			t.Errorf("1-wide field recorded a %v event for slab %d", ev.Kind, ev.Slab)
		}
	}
}

// refills counts the slabs the recorder saw admitted.
func refills(rec *flightrec.Recorder) int {
	n := 0
	for _, ev := range rec.Snapshot() {
		if ev.Kind == flightrec.KindWindowRefill {
			n++
		}
	}
	return n
}

// TestCompressStopsAtFirstSlabFault: the first slab error stops
// admission, so a one-worker run with bad input in slab 0 encodes that
// slab alone and returns its own typed error, not a cancellation.
func TestCompressStopsAtFirstSlabFault(t *testing.T) {
	f := datagen.Ocean(64, 256)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	f.U[5] = 1e30 // row 0, in slab 0 of 16
	rec := flightrec.New(0)
	_, err = Compress(field.Mem2D(f), tr, core.Options{Tau: 0.01},
		Options{Slabs: 16, Workers: 1, Rec: rec})
	var de *fixed.DomainError
	if !errors.As(err, &de) || de.Index != 5 {
		t.Fatalf("err = %v, want *fixed.DomainError at index 5", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("slab error reported as a cancellation: %v", err)
	}
	if n := refills(rec); n != 1 {
		t.Fatalf("%d slabs admitted after slab 0 failed, want 1", n)
	}
}

// TestDecompressStopsAtFirstCorruptSlab: a container whose slab 0 is
// corrupt stops decoding at that slab and returns its integrity error.
func TestDecompressStopsAtFirstCorruptSlab(t *testing.T) {
	f := datagen.Ocean(64, 256)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compress(field.Mem2D(f), tr, core.Options{Tau: 0.01}, Options{Slabs: 16})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := archive.OpenStream(bytes.NewReader(res.Blob), int64(len(res.Blob)))
	if err != nil {
		t.Fatal(err)
	}
	n0, err := sr.BlobLen(0)
	if err != nil {
		t.Fatal(err)
	}
	// Version-3 blobs start after the 5-byte magic and version; flipping
	// slab 0's last byte leaves its header peekable but fails its CRC.
	res.Blob[5+n0-1] ^= 0x40
	rec := flightrec.New(0)
	_, err = DecompressTo(bytes.NewReader(res.Blob), int64(len(res.Blob)), Options{Workers: 1, Rec: rec},
		func(dims []int) (PlaneSink, error) { return field.NewRawSink(discardWriterAt{}, dims...) })
	var ie *integrity.IntegrityError
	if !errors.As(err, &ie) || ie.Slab != 0 {
		t.Fatalf("err = %v, want an integrity error in slab 0", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("slab error reported as a cancellation: %v", err)
	}
	if n := refills(rec); n != 1 {
		t.Fatalf("%d slabs admitted after slab 0 failed, want 1", n)
	}
}

// TestSlabErrorsReportLowestIndex: when several slabs fail at once on
// many workers, the reported error is the lowest-indexed slab's on every
// run, whichever slab happened to fail first.
func TestSlabErrorsReportLowestIndex(t *testing.T) {
	f := datagen.Ocean(64, 256)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	// Rows 31, 40 and 50 sit in slabs 1, 2 and 3 of 16; slab 1's value
	// is last in its slab, so the others tend to fail first.
	bad := []int{31*64 + 63, 40*64 + 3, 50*64 + 3}
	for _, idx := range bad {
		f.U[idx] = 1e30
	}
	res, err := Compress(field.Mem2D(datagen.Ocean(64, 256)), tr, core.Options{Tau: 0.01}, Options{Slabs: 16})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := archive.OpenStream(bytes.NewReader(res.Blob), int64(len(res.Blob)))
	if err != nil {
		t.Fatal(err)
	}
	// Flip the last byte of slabs 3, 5 and 6: each still peeks, each
	// fails its CRC.
	end := int64(5)
	for i := 0; i < 7; i++ {
		n, err := sr.BlobLen(i)
		if err != nil {
			t.Fatal(err)
		}
		end += n
		if i == 3 || i == 5 || i == 6 {
			res.Blob[end-1] ^= 0x40
		}
	}
	for run := 0; run < 20; run++ {
		_, err := Compress(field.Mem2D(f), tr, core.Options{Tau: 0.01}, Options{Slabs: 16, Workers: 4})
		var de *fixed.DomainError
		if !errors.As(err, &de) || de.Index != bad[0] {
			t.Fatalf("run %d: compress err = %v, want *fixed.DomainError at index %d", run, err, bad[0])
		}
		_, err = DecompressTo(bytes.NewReader(res.Blob), int64(len(res.Blob)), Options{Workers: 4},
			func(dims []int) (PlaneSink, error) { return field.NewRawSink(discardWriterAt{}, dims...) })
		var ie *integrity.IntegrityError
		if !errors.As(err, &ie) || ie.Slab != 3 {
			t.Fatalf("run %d: decompress err = %v, want an integrity error in slab 3", run, err)
		}
	}
}

// TestSeamDegradationKeepsSeams picks injector seeds under which a slab
// panics in phase 2, after it has handed its decompressed min plane to
// its predecessor, and others in phase 1, before handing anything. Such
// a slab falls back to lossless storage that keeps the handed plane, a
// phase-1 casualty hands its exact plane over, and either way both sides
// of every seam agree: the container is the same at any workers ×
// window, every critical point survives and every value stays within τ.
func TestSeamDegradationKeepsSeams(t *testing.T) {
	f := datagen.Ocean(48, 64)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	const slabs, tau = 8, 0.01
	fires := func(inj *faultinject.Injector, keys ...uint64) (fired bool) {
		defer func() { fired = recover() != nil }()
		inj.MaybePanic("probe", keys...)
		return false
	}
	cfg := func(seed uint64) faultinject.Config {
		return faultinject.Config{Seed: seed, Prob: [faultinject.NumKinds]float64{faultinject.KindPanic: 0.3}}
	}
	// The fault-free container: a slab's phase 1 reads only original
	// planes, so a slab degraded in phase 2 has handed slab i-1 the same
	// decompressed min plane as here.
	clean, err := Compress(field.Mem2D(f), tr, core.Options{Tau: tau, Spec: core.ST1}, Options{Slabs: slabs})
	if err != nil {
		t.Fatal(err)
	}
	cg, err := decode2D(clean.Blob, 2)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := parallel.Partition(f.NY, slabs)
	if err != nil {
		t.Fatal(err)
	}
	tested, pinned := 0, 0
	for seed := uint64(1); seed < 200 && (tested < 3 || pinned == 0); seed++ {
		probe := faultinject.New(cfg(seed))
		phase2 := -1
		for i := 0; i < slabs-1; i++ {
			if !fires(probe, uint64(i)) && fires(probe, uint64(i), 2) {
				phase2 = i
				break
			}
		}
		if phase2 < 0 {
			continue
		}
		tested++
		// Below a slab i-1 that never fails, i-1's seam was compressed
		// against the plane slab i handed it.
		handed := phase2 >= 1 && !fires(probe, uint64(phase2-1)) && !fires(probe, uint64(phase2-1), 2)
		var ref []byte
		for _, po := range []Options{{Workers: 1}, {Workers: 2, Window: 1}, {Workers: 4, Window: 3}} {
			po.Slabs, po.Faults = slabs, faultinject.New(cfg(seed))
			res, err := Compress(field.Mem2D(f), tr, core.Options{Tau: tau, Spec: core.ST1}, po)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !slices.Contains(res.Degraded, phase2) {
				t.Fatalf("seed %d: slab %d should degrade in phase 2, degraded %v", seed, phase2, res.Degraded)
			}
			if ref == nil {
				ref = res.Blob
			} else if !bytes.Equal(res.Blob, ref) {
				t.Fatalf("seed %d: workers %d window %d differ", seed, po.Workers, po.Window)
			}
		}
		g, err := decode2D(ref, 2)
		if err != nil {
			t.Fatal(err)
		}
		if rep := cp.Compare(cp.DetectField2D(f, tr), cp.DetectField2D(g, tr)); !rep.Preserved() {
			t.Fatalf("seed %d: %+v", seed, rep)
		}
		if handed {
			pinned++
			// The degraded slab stores its handed min plane, not its
			// exact one, and slab i-1 decodes as in the fault-free run:
			// both sides of the seam agree on the values slab i-1's seam
			// cells were checked against.
			lo, hi := spans[phase2-1].Start*f.NX, (spans[phase2].Start+1)*f.NX
			exact := 0
			for v := lo; v < hi; v++ {
				if g.U[v] != cg.U[v] || g.V[v] != cg.V[v] {
					t.Fatalf("seed %d: vertex %d (slab %d or its min plane) decodes unlike the fault-free run", seed, v, phase2-1)
				}
				if v >= spans[phase2].Start*f.NX && g.U[v] == f.U[v] && g.V[v] == f.V[v] {
					exact++
				}
			}
			if exact == f.NX {
				t.Fatalf("seed %d: slab %d's min plane is exact, not the plane handed to slab %d", seed, phase2, phase2-1)
			}
		}
		for i := range f.U {
			if math.Abs(float64(f.U[i]-g.U[i])) > tau || math.Abs(float64(f.V[i]-g.V[i])) > tau {
				t.Fatalf("seed %d: vertex %d off by more than τ", seed, i)
			}
		}
	}
	if tested == 0 {
		t.Fatal("no seed panics a slab in phase 2")
	}
	if pinned == 0 {
		t.Fatal("no seed panics a slab in phase 2 below a slab that never fails")
	}
}

// TestStopReleasesWaitingSlabs: a slab that fails ends the run while
// its predecessor waits at their seam for it; the run returns the typed
// error at once, on one worker with the smallest window as on many.
func TestStopReleasesWaitingSlabs(t *testing.T) {
	f := datagen.Ocean(32, 64)
	tr, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	bad := 60*32 + 5 // row 60, in the last of 4 slabs
	f.U[bad] = 1e30
	for _, po := range []Options{{Workers: 1, Window: 1}, {Workers: 2, Window: 2}, {Workers: 4}} {
		po.Slabs = 4
		_, err := Compress(field.Mem2D(f), tr, core.Options{Tau: 0.01}, po)
		var de *fixed.DomainError
		if !errors.As(err, &de) || de.Index != bad {
			t.Fatalf("%+v: err = %v, want *fixed.DomainError at %d", po, err, bad)
		}
	}
}
