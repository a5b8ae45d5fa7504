package field

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/fixed"
)

// testField2D fills a deterministic 2D field with sign changes and a
// wide dynamic range, so stats and round-trip tests exercise real data.
func testField2D(nx, ny int) *Field2D {
	f := NewField2D(nx, ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			idx := f.Idx(i, j)
			f.U[idx] = float32(math.Sin(float64(i)*0.3) * float64(j+1))
			f.V[idx] = float32(math.Cos(float64(j)*0.5) * float64(i-nx/2))
		}
	}
	return f
}

// memFileAt is an in-memory ReaderAt/WriterAt standing in for the raw
// file in round-trip tests.
type memFileAt struct {
	mu  sync.Mutex
	buf []byte
}

func (m *memFileAt) WriteAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if need := int(off) + len(p); need > len(m.buf) {
		m.buf = append(m.buf, make([]byte, need-len(m.buf))...)
	}
	copy(m.buf[off:], p)
	return len(p), nil
}

func (m *memFileAt) ReadAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	copy(p, m.buf[off:])
	return len(p), nil
}

// TestRawSourceSinkRoundTrip pins the raw source/sink pair: planes written through
// a RawSink in arbitrary order read back exactly through a RawSource,
// and the byte layout matches the component-major WriteRaw contract.
func TestRawSourceSinkRoundTrip(t *testing.T) {
	f := testField2D(17, 23)
	file := &memFileAt{}
	sink, err := NewRawSink(file, 17, 23)
	if err != nil {
		t.Fatal(err)
	}
	// Write planes out of order, in uneven runs, like concurrent slab
	// decodes do.
	for _, span := range [][2]int{{8, 7}, {0, 3}, {15, 8}, {3, 5}} {
		start, count := span[0], span[1]
		comps := [][]float32{
			f.U[start*17 : (start+count)*17],
			f.V[start*17 : (start+count)*17],
		}
		if err := sink.WritePlanes(start, comps); err != nil {
			t.Fatalf("WritePlanes(%d,%d): %v", start, count, err)
		}
	}
	src, err := NewRawSource(file, 17, 23)
	if err != nil {
		t.Fatal(err)
	}
	got := [][]float32{make([]float32, 17*23), make([]float32, 17*23)}
	if err := src.ReadPlanes(0, 23, got); err != nil {
		t.Fatal(err)
	}
	for i := range f.U {
		if got[0][i] != f.U[i] || got[1][i] != f.V[i] {
			t.Fatalf("point %d: (%v,%v), want (%v,%v)", i, got[0][i], got[1][i], f.U[i], f.V[i])
		}
	}
}

// TestMemWritePlanes pins the memory adapter as a sink: out-of-order
// plane runs land in place, and spans outside the grid fail.
func TestMemWritePlanes(t *testing.T) {
	f := testField2D(17, 23)
	g := NewField2D(17, 23)
	m := Mem2D(g)
	for _, span := range [][2]int{{8, 7}, {0, 3}, {15, 8}, {3, 5}} {
		lo, hi := span[0]*17, (span[0]+span[1])*17
		if err := m.WritePlanes(span[0], [][]float32{f.U[lo:hi], f.V[lo:hi]}); err != nil {
			t.Fatalf("WritePlanes(%d,%d): %v", span[0], span[1], err)
		}
	}
	for i := range f.U {
		if g.U[i] != f.U[i] || g.V[i] != f.V[i] {
			t.Fatalf("point %d: (%v,%v), want (%v,%v)", i, g.U[i], g.V[i], f.U[i], f.V[i])
		}
	}
	if err := m.WritePlanes(20, [][]float32{f.U[:5*17], f.V[:5*17]}); !errors.Is(err, ErrPlaneRange) {
		t.Errorf("span past the grid: %v, want ErrPlaneRange", err)
	}
	if err := m.WritePlanes(0, [][]float32{f.U}); err == nil {
		t.Error("one component buffer for a 2D field must fail")
	}
}

// TestMemSourceMatchesRaw pins that Mem2D and RawSource agree plane for
// plane on the same field.
func TestMemSourceMatchesRaw(t *testing.T) {
	f := testField2D(11, 19)
	file := &memFileAt{}
	sink, err := NewRawSink(file, 11, 19)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.WritePlanes(0, [][]float32{f.U, f.V}); err != nil {
		t.Fatal(err)
	}
	raw, err := NewRawSource(file, 11, 19)
	if err != nil {
		t.Fatal(err)
	}
	mem := Mem2D(f)
	a := [][]float32{make([]float32, 5*11), make([]float32, 5*11)}
	b := [][]float32{make([]float32, 5*11), make([]float32, 5*11)}
	for start := 0; start < 19; start += 4 {
		count := 4
		if start+count > 19 {
			count = 19 - start
		}
		if err := mem.ReadPlanes(start, count, a); err != nil {
			t.Fatal(err)
		}
		if err := raw.ReadPlanes(start, count, b); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < count*11; i++ {
			if a[0][i] != b[0][i] || a[1][i] != b[1][i] {
				t.Fatalf("planes [%d,%d) point %d differ", start, start+count, i)
			}
		}
	}
}

// TestSourceStats pins the single-pass stats against the in-memory
// references: FromMaxAbs(MaxAbs) must equal fixed.Fit's transform, and
// the result must not depend on the scan window.
func TestSourceStats(t *testing.T) {
	f := testField2D(31, 27)
	want, err := fixed.Fit(f.U, f.V)
	if err != nil {
		t.Fatal(err)
	}
	var ref Stats
	for wi, window := range []int{1, 3, 27, 1000, 0} {
		st, err := SourceStats(Mem2D(f), window)
		if err != nil {
			t.Fatalf("window=%d: %v", window, err)
		}
		if got := fixed.FromMaxAbs(st.MaxAbs); got != want {
			t.Fatalf("window=%d: transform %+v, want %+v", window, got, want)
		}
		if st.N != 2*31*27 {
			t.Fatalf("window=%d: N = %d, want %d", window, st.N, 2*31*27)
		}
		if wi == 0 {
			ref = st
		} else if st != ref {
			t.Fatalf("window=%d: stats %+v differ from window=1 %+v", window, st, ref)
		}
	}
}

// TestStatsRange pins the constant-field clamp the relative-τ path
// relies on.
func TestStatsRange(t *testing.T) {
	if r := (Stats{Min: 2, Max: 5}).Range(); r != 3 {
		t.Errorf("Range() = %v, want 3", r)
	}
	if r := (Stats{Min: 4, Max: 4}).Range(); r != 1 {
		t.Errorf("constant field Range() = %v, want 1", r)
	}
	// The in-memory helper is the same definition as the streamed stats.
	f := testField2D(13, 9)
	st, err := SourceStats(Mem2D(f), 4)
	if err != nil {
		t.Fatal(err)
	}
	if r := Range(f.U, f.V); r != st.Range() {
		t.Errorf("Range = %v, SourceStats Range = %v", r, st.Range())
	}
	if r := Range([]float32{7, 7}); r != 1 {
		t.Errorf("constant Range = %v, want 1", r)
	}
}

// TestSpanValidation pins the shared range checking across sources.
func TestSpanValidation(t *testing.T) {
	f := testField2D(8, 8)
	src := Mem2D(f)
	buf := [][]float32{make([]float32, 8*8), make([]float32, 8*8)}
	if err := src.ReadPlanes(6, 4, buf); err == nil {
		t.Error("out-of-range span accepted")
	}
	if err := src.ReadPlanes(0, 2, buf[:1]); err == nil {
		t.Error("wrong component count accepted")
	}
	short := [][]float32{make([]float32, 4), make([]float32, 4)}
	if err := src.ReadPlanes(0, 2, short); err == nil {
		t.Error("short buffers accepted")
	}
}

// TestSourceStatsRejectsNonFinite pins the streaming stats pass to the
// same input domain as fixed.Fit: the first NaN or infinity, wherever
// the scan window puts it, is a *fixed.DomainError with its index inside
// the component.
func TestSourceStatsRejectsNonFinite(t *testing.T) {
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		f := testField2D(31, 27)
		at := f.Idx(4, 20)
		f.V[at] = bad
		f.V[at+7] = bad
		for _, window := range []int{1, 3, 0} {
			_, err := SourceStats(Mem2D(f), window)
			var de *fixed.DomainError
			if !errors.As(err, &de) {
				t.Fatalf("%v window=%d: err = %v, want *fixed.DomainError", bad, window, err)
			}
			if de.Component != 1 || de.Index != at {
				t.Errorf("%v window=%d: located at component %d index %d, want 1/%d", bad, window, de.Component, de.Index, at)
			}
		}
	}
}
