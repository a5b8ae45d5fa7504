package archive

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/field"
	"repro/internal/fixed"
)

// slowSeries builds a slowly rotating vortex — the regime where temporal
// prediction should dominate.
func slowSeries(steps, n int) []*field.Field2D {
	out := make([]*field.Field2D, steps)
	for t := range out {
		f := field.NewField2D(n, n)
		cx := float64(n)/2 + 0.15*float64(t)
		cy := float64(n) / 2
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				dx, dy := float64(i)-cx, float64(j)-cy
				g := math.Exp(-(dx*dx + dy*dy) / float64(n))
				idx := f.Idx(i, j)
				f.U[idx] = float32(-dy * g)
				f.V[idx] = float32(dx * g)
			}
		}
		out[t] = f
	}
	return out
}

// writeSeries2D appends fields as a temporal series to a v3 container.
func writeSeries2D(t *testing.T, opts core.Options, fields []*field.Field2D) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	s := NewSeries(sw)
	for _, f := range fields {
		if err := s.Append([]int{f.NX, f.NY}, f.Components(), opts); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTemporalSeriesRoundTrip(t *testing.T) {
	fields := slowSeries(6, 24)
	sr, err := openBytes(writeSeries2D(t, core.Options{Tau: 0.01}, fields))
	if err != nil {
		t.Fatal(err)
	}
	dims, dec, err := DecodeSeries(sr)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := fixed.Fit(fields[0].U, fields[0].V)
	for s := range fields {
		for i := range fields[s].U {
			if math.Abs(float64(fields[s].U[i])-float64(dec[s][0][i])) > 0.01 {
				t.Fatalf("step %d error bound violated", s)
			}
		}
		rep := cp.Compare(cp.DetectField2D(fields[s], tr), cp.Detect(dims, dec[s], tr))
		if !rep.Preserved() {
			t.Fatalf("step %d: %v", s, rep)
		}
	}
}

func TestTemporalBeatsSpatialOnSlowSeries(t *testing.T) {
	fields := slowSeries(8, 32)
	opts := core.Options{Tau: 0.005}
	spatial := len(writeV3(t, compress2D(t, opts, fields...)))
	temporal := len(writeSeries2D(t, opts, fields))
	if temporal >= spatial {
		t.Errorf("temporal prediction (%d bytes) should beat spatial (%d bytes) on a slow series",
			temporal, spatial)
	}
	t.Logf("spatial %d bytes, temporal %d bytes (%.1f%% saved)",
		spatial, temporal, 100*(1-float64(temporal)/float64(spatial)))
}

func TestTemporalNeedsPrevFrame(t *testing.T) {
	sr, err := openBytes(writeSeries2D(t, core.Options{Tau: 0.01}, slowSeries(2, 16)))
	if err != nil {
		t.Fatal(err)
	}
	// Step 1 is temporally predicted: decoding without its predecessor
	// must fail cleanly.
	if _, err := decodeStep(t, sr, 1); err == nil {
		t.Fatal("temporal frame decoded without previous frame")
	}
	// Step 0 has no predecessor and decodes directly.
	if _, err := decodeStep(t, sr, 0); err != nil {
		t.Fatal(err)
	}
}

func TestTemporal3DSeries(t *testing.T) {
	mk := func(t0 float64) *field.Field3D {
		f := field.NewField3D(10, 10, 10)
		for k := 0; k < 10; k++ {
			for j := 0; j < 10; j++ {
				for i := 0; i < 10; i++ {
					idx := f.Idx(i, j, k)
					f.U[idx] = float32(math.Sin(float64(i)/3 + t0))
					f.V[idx] = float32(math.Cos(float64(j)/3 + t0))
					f.W[idx] = float32(math.Sin(float64(k)/3 - t0))
				}
			}
		}
		return f
	}
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	series := NewSeries(sw)
	var fields []*field.Field3D
	for s := 0; s < 4; s++ {
		f := mk(float64(s) * 0.05)
		fields = append(fields, f)
		if err := series.Append([]int{f.NX, f.NY, f.NZ}, f.Components(), core.Options{Tau: 0.01}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sr, err := openBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	_, dec, err := DecodeSeries(sr)
	if err != nil {
		t.Fatal(err)
	}
	for s := range fields {
		for i := range fields[s].U {
			if math.Abs(float64(fields[s].U[i])-float64(dec[s][0][i])) > 0.01 {
				t.Fatalf("step %d error bound violated", s)
			}
		}
	}
	// A 3D series rejects a frame of another shape too.
	if err := series.Append([]int{10, 10, 12}, field.NewField3D(10, 10, 12).Components(), core.Options{Tau: 0.01}); !errors.Is(err, ErrDimsChanged) {
		t.Errorf("3D dimension change: got %v, want ErrDimsChanged", err)
	}
}

func TestTemporalDimensionChangeRejected(t *testing.T) {
	s := NewSeries(NewStreamWriter(io.Discard))
	a, b := slowSeries(1, 16)[0], slowSeries(1, 20)[0]
	if err := s.Append([]int{a.NX, a.NY}, a.Components(), core.Options{Tau: 0.01}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]int{b.NX, b.NY}, b.Components(), core.Options{Tau: 0.01}); err == nil {
		t.Fatal("dimension change must be rejected")
	}
	g := field.NewField3D(16, 16, 4)
	if err := s.Append([]int{16, 16, 4}, g.Components(), core.Options{Tau: 0.01}); !errors.Is(err, ErrDimsChanged) {
		t.Fatalf("2D series given a 3D frame: got %v, want ErrDimsChanged", err)
	}
}
