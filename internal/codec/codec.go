// Package codec is the service layer's format registry: compression
// engines register under a (format, version) key and the network daemon
// (cmd/topozipd) dispatches requests to whichever codec the client
// names. The registry exists so the wire surface stays stable while the
// engine roster grows — the critical-point-preserving codec of the ICDE
// paper is registered today, and the cpSZ coupled/decoupled variants,
// the SZ3/ZFP-like baselines, and the lossless escape slot in under
// their own keys without touching the server.
//
// Codecs stream: Compress pulls slow-axis planes from a
// field.SlabSource and writes the archive container incrementally,
// Decompress pushes decoded planes into a sink — neither side ever
// holds a whole field, so the daemon's memory stays bounded by the
// admission window regardless of request size.
package codec

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/field"
	"repro/internal/shm"
)

// Key identifies one registered codec: a format name plus its wire
// format version, so incompatible revisions of one family coexist.
type Key struct {
	Format  string
	Version int
}

func (k Key) String() string { return fmt.Sprintf("%s/v%d", k.Format, k.Version) }

// Params carries the request-scoped compression options a codec
// understands. Codec-specific settings (the speculation target, a
// baseline's mode) travel in Spec as an opaque string the codec parses,
// so the registry API never grows per-codec fields.
type Params struct {
	// Dims is the grid shape, [NX, NY] or [NX, NY, NZ].
	Dims []int
	// Tau is the error bound; relative to the value range unless
	// TauAbsolute.
	Tau         float64
	TauAbsolute bool
	// Spec is the codec-specific mode string ("NoSpec", "ST1".."ST4"
	// for topozip-cp). Empty picks the codec's default.
	Spec string
	// Pipeline configures the slab pipeline the codec runs on: workers,
	// slab count, the memory budget (which alone sets the admission
	// window), cancellation context, telemetry, flight recorder, fault
	// injection.
	Pipeline shm.Options
}

// Result reports a compression run: the slab pipeline's result plus the
// absolute error bound the codec resolved.
type Result struct {
	shm.Result
	TauAbs float64
}

// Codec is one registered compression engine. Implementations must be
// safe for concurrent use: the daemon dispatches many requests into one
// codec value.
type Codec interface {
	// Key returns the registry key the codec serves.
	Key() Key
	// Describe returns a one-line human description for listings.
	Describe() string
	// Compress streams the field behind src into the archive container
	// on w. Implementations must honor p.Pipeline.Ctx and never buffer
	// the whole field.
	Compress(src field.SlabSource, w io.Writer, p Params) (Result, error)
	// Decompress streams the container held by r (size bytes) into the
	// sink built by sinkFor once the stored dims are known, returning
	// those dims. Honors p.Pipeline.Ctx.
	Decompress(r io.ReaderAt, size int64, p Params, sinkFor func(dims []int) (shm.PlaneSink, error)) ([]int, error)
}

// UnknownFormatError is the typed lookup failure: the requested key is
// not registered. The server maps it to a 4xx, never a 5xx.
type UnknownFormatError struct {
	Requested Key
	Known     []Key
}

func (e *UnknownFormatError) Error() string {
	names := make([]string, len(e.Known))
	for i, k := range e.Known {
		names[i] = k.String()
	}
	return fmt.Sprintf("codec: unknown format %s (registered: %s)",
		e.Requested, strings.Join(names, ", "))
}

var (
	regMu    sync.RWMutex
	registry = map[Key]Codec{}
)

// Register adds c under its key. Registering the same key twice is a
// programming error and panics at init time.
func Register(c Codec) {
	regMu.Lock()
	defer regMu.Unlock()
	k := c.Key()
	if _, dup := registry[k]; dup {
		panic("codec: duplicate registration of " + k.String())
	}
	registry[k] = c
}

// Lookup resolves a format name and version. Version <= 0 picks the
// highest registered version of the format. Failures are typed
// *UnknownFormatError.
func Lookup(format string, version int) (Codec, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	if version > 0 {
		if c, ok := registry[Key{Format: format, Version: version}]; ok {
			return c, nil
		}
	} else {
		var best Codec
		for k, c := range registry {
			if k.Format == format && (best == nil || k.Version > best.Key().Version) {
				best = c
			}
		}
		if best != nil {
			return best, nil
		}
	}
	return nil, &UnknownFormatError{Requested: Key{Format: format, Version: version}, Known: keysLocked()}
}

// Keys lists the registered keys, sorted by format then version.
func Keys() []Key {
	regMu.RLock()
	defer regMu.RUnlock()
	return keysLocked()
}

func keysLocked() []Key {
	keys := make([]Key, 0, len(registry))
	for k := range registry {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Format != keys[j].Format {
			return keys[i].Format < keys[j].Format
		}
		return keys[i].Version < keys[j].Version
	})
	return keys
}
