package codec

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/shm"
)

func TestLookup(t *testing.T) {
	c, err := Lookup(FormatCP, core.FormatVersion)
	if err != nil {
		t.Fatal(err)
	}
	if c.Key().Format != FormatCP {
		t.Fatalf("wrong codec: %v", c.Key())
	}
	// Version <= 0 resolves to the highest registered version.
	c2, err := Lookup(FormatCP, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Key() != c.Key() {
		t.Fatalf("default-version lookup got %v, want %v", c2.Key(), c.Key())
	}
}

func TestLookupUnknownIsTyped(t *testing.T) {
	_, err := Lookup("no-such-codec", 1)
	var ue *UnknownFormatError
	if !errors.As(err, &ue) {
		t.Fatalf("want *UnknownFormatError, got %T: %v", err, err)
	}
	if len(ue.Known) == 0 {
		t.Fatal("typed error should list the registered keys")
	}
	if _, err := Lookup(FormatCP, 999); err == nil {
		t.Fatal("bogus version must not resolve")
	}
}

// The codec's streamed output must be byte-identical to calling the shm
// pipeline directly with the CLI's derivation (stats pass, FromMaxAbs
// transform, range-relative tau) — the acceptance contract the daemon
// builds on.
func TestCompressMatchesPipeline(t *testing.T) {
	f := datagen.Ocean(64, 48)
	src := field.Mem2D(f)
	c, err := Lookup(FormatCP, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	res, err := c.Compress(src, &got, Params{Tau: 0.01, Spec: "ST1"})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := field.SourceStats(src, 64)
	if err != nil {
		t.Fatal(err)
	}
	tr := fixed.FromMaxAbs(stats.MaxAbs)
	var want bytes.Buffer
	_, err = shm.CompressStream(src, &want, tr,
		core.Options{Tau: 0.01 * stats.Range(), Spec: core.ST1}, shm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("codec output differs from direct pipeline output")
	}
	if res.TauAbs != 0.01*stats.Range() {
		t.Fatalf("TauAbs %g want %g", res.TauAbs, 0.01*stats.Range())
	}

	// Round-trip through the codec's streaming decode.
	out := field.NewField2D(64, 48)
	dims, err := c.Decompress(bytes.NewReader(got.Bytes()), int64(got.Len()),
		Params{}, func(dims []int) (shm.PlaneSink, error) {
			return memSink{out}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(dims) != 2 || dims[0] != 64 || dims[1] != 48 {
		t.Fatalf("decoded dims %v", dims)
	}
	ref := field.NewField2D(64, 48)
	if err := shm.Decompress(got.Bytes(), 1, field.Mem2D(ref)); err != nil {
		t.Fatal(err)
	}
	for i := range ref.U {
		if ref.U[i] != out.U[i] || ref.V[i] != out.V[i] {
			t.Fatalf("streamed decode diverges at %d", i)
		}
	}
}

func TestDecompressDimsMismatch(t *testing.T) {
	f := datagen.Ocean(32, 32)
	c, _ := Lookup(FormatCP, 0)
	var buf bytes.Buffer
	if _, err := c.Compress(field.Mem2D(f), &buf, Params{Tau: 0.01}); err != nil {
		t.Fatal(err)
	}
	_, err := c.Decompress(bytes.NewReader(buf.Bytes()), int64(buf.Len()),
		Params{Dims: []int{16, 16}}, func(dims []int) (shm.PlaneSink, error) {
			t.Fatal("sink must not be built on a dims mismatch")
			return nil, nil
		})
	if err == nil {
		t.Fatal("dims mismatch must fail")
	}
}

func TestParseSpec(t *testing.T) {
	for in, want := range map[string]core.Speculation{
		"": core.NoSpec, "nospec": core.NoSpec, "ST1": core.ST1,
		"st4": core.ST4, "St3": core.ST3,
	} {
		got, err := ParseSpec(in)
		if err != nil || got != want {
			t.Fatalf("ParseSpec(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSpec("ST9"); err == nil {
		t.Fatal("bad spec must fail")
	}
}

// memSink writes planes into an in-memory 2D field.
type memSink struct{ f *field.Field2D }

func (m memSink) WritePlanes(start int, comps [][]float32) error {
	n := len(comps[0])
	copy(m.f.U[start*m.f.NX:start*m.f.NX+n], comps[0])
	copy(m.f.V[start*m.f.NX:start*m.f.NX+n], comps[1])
	return nil
}

// TestCompressRejectsNonFinite: the codec's streaming stats pass turns a
// NaN in the source into a typed *fixed.DomainError before any output is
// written.
func TestCompressRejectsNonFinite(t *testing.T) {
	f := datagen.Ocean(32, 24)
	f.V[100] = float32(math.NaN())
	c, err := Lookup(FormatCP, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	_, err = c.Compress(field.Mem2D(f), &out, Params{Tau: 0.01, Spec: "ST1"})
	var de *fixed.DomainError
	if !errors.As(err, &de) || de.Component != 1 || de.Index != 100 {
		t.Fatalf("err = %v, want *fixed.DomainError at component 1 index 100", err)
	}
	if out.Len() != 0 {
		t.Fatalf("%d bytes written before the domain error", out.Len())
	}
}

// TestCompressRejectsNonFiniteTau: a NaN or infinite bound — given, or
// reached by scaling a huge relative bound by the value range — is a
// *fixed.DomainError naming tau, not a field degraded to lossless.
func TestCompressRejectsNonFiniteTau(t *testing.T) {
	f := datagen.Ocean(32, 24)
	c, err := Lookup(FormatCP, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		tau float64
		abs bool
	}{
		{math.NaN(), true},
		{math.Inf(1), true},
		{math.Inf(-1), false},
		{math.MaxFloat64, false}, // finite, but τ·range overflows
	} {
		var out bytes.Buffer
		_, err := c.Compress(field.Mem2D(f), &out, Params{Tau: tc.tau, TauAbsolute: tc.abs, Spec: "ST1"})
		var de *fixed.DomainError
		if !errors.As(err, &de) || de.Param != "tau" {
			t.Errorf("tau=%v abs=%v: err = %v, want *fixed.DomainError for tau", tc.tau, tc.abs, err)
		}
		if out.Len() != 0 {
			t.Errorf("tau=%v: %d bytes written before the domain error", tc.tau, out.Len())
		}
	}
}

func TestParseDims(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		err  bool
	}{
		{"64x48", []int{64, 48}, false},
		{"8X8X8", []int{8, 8, 8}, false},
		{"64", nil, true},
		{"2x3x4x5", nil, true},
		{"64xfoo", nil, true},
		{"16xfrog", nil, true},
		{"1x5", nil, true}, // below minimum
	}
	for _, c := range cases {
		got, err := ParseDims(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseDims(%q) err = %v", c.in, err)
			continue
		}
		if err == nil && !slices.Equal(got, c.want) {
			t.Errorf("ParseDims(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}
