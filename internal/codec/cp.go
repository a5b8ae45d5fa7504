// The critical-point-preserving codec of the ICDE'24 paper, registered
// as "topozip-cp": NoSpec–ST4 speculation over 2D triangulated and 3D
// tetrahedralized grids, running on the shared-memory slab pipeline so
// compression streams with O(window × slab) memory and decompression
// streams planes straight into the caller's sink.

package codec

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/shm"
)

// FormatCP is the registry name of the paper's codec.
const FormatCP = "topozip-cp"

func init() { Register(cpCodec{}) }

// cpCodec adapts the shm streaming pipeline to the Codec interface.
type cpCodec struct{}

func (cpCodec) Key() Key { return Key{Format: FormatCP, Version: core.FormatVersion} }

func (cpCodec) Describe() string {
	return "critical-point-preserving vector-field compressor (sign-of-determinant predicates, NoSpec/ST1-ST4)"
}

// ParseSpec resolves the codec's mode string; shared with the CLI-facing
// parsers so the wire surface and the command line accept the same names.
func ParseSpec(s string) (core.Speculation, error) {
	switch strings.ToUpper(s) {
	case "", "NOSPEC", "NONE":
		return core.NoSpec, nil
	case "ST1":
		return core.ST1, nil
	case "ST2":
		return core.ST2, nil
	case "ST3":
		return core.ST3, nil
	case "ST4":
		return core.ST4, nil
	}
	return 0, fmt.Errorf("codec: unknown speculation target %q", s)
}

// Compress runs the streaming stats pass (transform fit plus range for a
// relative bound), then the windowed slab pipeline — the same derivation
// the topozip CLI's out-of-core path uses, so a daemon response is
// byte-identical to the CLI output for the same input and options.
func (cpCodec) Compress(src field.SlabSource, w io.Writer, p Params) (Result, error) {
	dims := src.Dims()
	if len(p.Dims) > 0 && !slices.Equal(p.Dims, dims) {
		return Result{}, fmt.Errorf("codec: source dims %v disagree with requested %v", dims, p.Dims)
	}
	spec, err := ParseSpec(p.Spec)
	if err != nil {
		return Result{}, err
	}
	// Reject a non-finite bound before the stats pass reads the source.
	// The stream pipeline checks the range-scaled bound again, since a
	// huge relative bound can overflow to +Inf.
	if err := fixed.CheckParam("tau", p.Tau); err != nil {
		return Result{}, err
	}
	stats, err := field.SourceStats(src, StatsWindow(p.Pipeline.MaxMemBytes, dims))
	if err != nil {
		return Result{}, err
	}
	t := p.Tau
	if !p.TauAbsolute {
		t *= stats.Range()
	}
	tr := fixed.FromMaxAbs(stats.MaxAbs)
	opts := core.Options{Tau: t, Spec: spec, Tel: p.Pipeline.Tel, Rec: p.Pipeline.Rec, RecSlab: -1}
	res, err := shm.CompressStream(src, w, tr, opts, p.Pipeline)
	return Result{Result: res, TauAbs: t}, err
}

// Decompress streams the slab container into the sink; dims come from
// the container itself, so p.Dims is advisory (validated when set).
func (cpCodec) Decompress(r io.ReaderAt, size int64, p Params, sinkFor func(dims []int) (shm.PlaneSink, error)) ([]int, error) {
	checked := sinkFor
	if len(p.Dims) > 0 {
		checked = func(dims []int) (shm.PlaneSink, error) {
			if !slices.Equal(p.Dims, dims) {
				return nil, fmt.Errorf("codec: container holds %v, request expected %v", dims, p.Dims)
			}
			return sinkFor(dims)
		}
	}
	return shm.DecompressTo(r, size, p.Pipeline, checked)
}

// ParseDims parses a grid shape "NXxNY" (2D, two components) or
// "NXxNYxNZ" (3D, three components), the syntax shared by the topozip
// command line and the daemon's dims parameter.
func ParseDims(s string) ([]int, error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != 2 && len(parts) != 3 {
		return nil, fmt.Errorf("bad dims %q: want NXxNY or NXxNYxNZ", s)
	}
	dims := make([]int, len(parts))
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad dims %q: each dimension must be an integer >= 2", s)
		}
		dims[i] = n
	}
	return dims, nil
}

// StatsWindow sizes the plane window of a stats or scan pass over a
// field of the given dims to about a quarter of the memory budget; no
// budget picks 64 planes.
func StatsWindow(budget int64, dims []int) int {
	if budget <= 0 {
		return 64
	}
	nc := len(dims)
	ps := int64(dims[0])
	if nc == 3 {
		ps *= int64(dims[1])
	}
	w := budget / 4 / (int64(nc) * ps * 4)
	if w < 1 {
		w = 1
	}
	if max := int64(dims[nc-1]); w > max {
		w = max
	}
	return int(w)
}
