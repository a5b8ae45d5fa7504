package repro

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/shm"
)

// Out-of-core soak: compress a field an order of magnitude larger than
// an enforced heap ceiling, prove the pipeline never materializes it,
// and prove the container is byte-identical at every worker count. Run
// via `make memgate` (part of `make check`); the MEMGATE gate keeps the
// multi-hundred-megabyte I/O out of every plain `go test ./...`.

const (
	soakBudget = 4 << 20 // -max-mem handed to the pipeline
	soakNX     = 1024
	soakNY     = 5120 // raw field: 1024*5120*2*4 = 40 MiB, 10x the budget
)

// writeSoakField streams a synthetic ocean-like field to path in
// O(window) memory, never holding the 40 MiB field.
func writeSoakField(t *testing.T, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := field.NewRawSink(f, soakNX, soakNY)
	if err != nil {
		t.Fatal(err)
	}
	const window = 64
	u := make([]float32, window*soakNX)
	v := make([]float32, window*soakNX)
	for start := 0; start < soakNY; start += window {
		count := window
		if start+count > soakNY {
			count = soakNY - start
		}
		for r := 0; r < count; r++ {
			j := start + r
			for i := 0; i < soakNX; i++ {
				idx := r*soakNX + i
				x, y := float64(i)*0.021, float64(j)*0.013
				u[idx] = float32(math.Sin(x)*math.Cos(y) + 0.3*math.Sin(3*x+y))
				v[idx] = float32(-math.Cos(x)*math.Sin(y) + 0.3*math.Cos(x-2*y))
			}
		}
		if err := sink.WritePlanes(start, [][]float32{u[:count*soakNX], v[:count*soakNX]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// heapSampler tracks peak HeapAlloc on a background goroutine.
type heapSampler struct {
	peak uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > atomic.LoadUint64(&s.peak) {
				atomic.StoreUint64(&s.peak, ms.HeapAlloc)
			}
			select {
			case <-s.stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()
	return s
}

func (s *heapSampler) Stop() uint64 {
	close(s.stop)
	<-s.done
	return atomic.LoadUint64(&s.peak)
}

func TestStreamSoakOutOfCore(t *testing.T) {
	if os.Getenv("MEMGATE") == "" {
		t.Skip("set MEMGATE=1 (or run `make memgate`) for the out-of-core soak")
	}
	dir := t.TempDir()
	raw := filepath.Join(dir, "soak.f32")
	writeSoakField(t, raw)

	// Shared transform and τ from a windowed stats pass, exactly like
	// `topozip compress -max-mem` derives them.
	inF, err := os.Open(raw)
	if err != nil {
		t.Fatal(err)
	}
	defer inF.Close()
	src, err := field.NewRawSource(inF, soakNX, soakNY)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := field.SourceStats(src, 64)
	if err != nil {
		t.Fatal(err)
	}
	tr := fixed.FromMaxAbs(stats.MaxAbs)
	tau := 0.005 * stats.Range()
	opts := core.Options{Tau: tau, Spec: core.ST2}

	// Enforce the ceiling: baseline heap plus pipeline headroom. The
	// runtime fights to stay under it; the sampler is the assertion.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseline := ms.HeapAlloc
	const headroom = 4 * soakBudget
	prevLimit := debug.SetMemoryLimit(int64(baseline) + headroom)
	defer debug.SetMemoryLimit(prevLimit)
	// Collect eagerly: the assertion is about live windowed state, not
	// about how long dead slab buffers linger between collections.
	prevGC := debug.SetGCPercent(20)
	defer debug.SetGCPercent(prevGC)

	// Compress at several worker counts: every container must be
	// byte-identical, and every run must stay inside the ceiling.
	var ref []byte
	for _, workers := range []int{1, 4, 8} {
		out := filepath.Join(dir, fmt.Sprintf("soak.w%d.szp", workers))
		outF, err := os.Create(out)
		if err != nil {
			t.Fatal(err)
		}
		sampler := startHeapSampler()
		res, err := shm.CompressStream(src, outF, tr, opts,
			shm.Options{Workers: workers, MaxMemBytes: soakBudget})
		peak := sampler.Stop()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := outF.Close(); err != nil {
			t.Fatal(err)
		}
		if delta := int64(peak) - int64(baseline); delta > headroom {
			t.Fatalf("workers=%d: peak heap delta %d bytes exceeds ceiling %d (field is %d)",
				workers, delta, int64(headroom), res.RawBytes)
		}
		if res.RawBytes < 10*soakBudget {
			t.Fatalf("soak field %d bytes is under 10x the %d budget", res.RawBytes, soakBudget)
		}
		if res.Window >= res.Slabs {
			t.Fatalf("workers=%d: window %d of %d slabs — budget did not bound admission",
				workers, res.Window, res.Slabs)
		}
		blob, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = blob
		} else if !bytes.Equal(blob, ref) {
			t.Fatalf("workers=%d container differs from workers=1", workers)
		}
		t.Logf("workers=%d: %d slabs window %d, peak window %d bytes, heap delta %d bytes, ratio %.2f",
			workers, res.Slabs, res.Window, res.PeakWindowBytes, int64(peak)-int64(baseline), res.Ratio())
	}

	// Streaming round trip under the same ceiling, then windowed CP
	// verification against the original — the paper's invariant, checked
	// without ever holding either field.
	dec := filepath.Join(dir, "soak.dec.f32")
	decF, err := os.Create(dec)
	if err != nil {
		t.Fatal(err)
	}
	compF, err := os.Open(filepath.Join(dir, "soak.w1.szp"))
	if err != nil {
		t.Fatal(err)
	}
	defer compF.Close()
	fi, err := compF.Stat()
	if err != nil {
		t.Fatal(err)
	}
	sampler := startHeapSampler()
	dims, err := shm.DecompressTo(compF, fi.Size(), shm.Options{MaxMemBytes: soakBudget},
		func(d []int) (shm.PlaneSink, error) { return field.NewRawSink(decF, d...) })
	peak := sampler.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if err := decF.Close(); err != nil {
		t.Fatal(err)
	}
	if len(dims) != 2 || dims[0] != soakNX || dims[1] != soakNY {
		t.Fatalf("decoded dims %v", dims)
	}
	if delta := int64(peak) - int64(baseline); delta > headroom {
		t.Fatalf("decompress peak heap delta %d exceeds ceiling %d", delta, int64(headroom))
	}

	decRF, err := os.Open(dec)
	if err != nil {
		t.Fatal(err)
	}
	defer decRF.Close()
	decSrc, err := field.NewRawSource(decRF, soakNX, soakNY)
	if err != nil {
		t.Fatal(err)
	}
	origPts, err := cp.DetectSource(src, tr, 64)
	if err != nil {
		t.Fatal(err)
	}
	decPts, err := cp.DetectSource(decSrc, tr, 64)
	if err != nil {
		t.Fatal(err)
	}
	rep := cp.Compare(origPts, decPts)
	if !rep.Preserved() {
		t.Fatalf("critical points not preserved: %+v (of %d)", rep, len(origPts))
	}
	t.Logf("round trip: %d critical points preserved, decompress heap delta %d bytes",
		len(origPts), int64(peak)-int64(baseline))
}
