// Package faultinject provides deterministic, seeded fault injection for
// exercising the fault-tolerant paths of the compression pipeline:
// worker panics, slab-blob bit flips and truncations, and the network
// client faults of the load generator. Production builds pass a nil
// *Injector — every method on nil is a no-op, the same convention the
// telemetry package uses — so the hooks cost one nil check on hot paths.
//
// Decisions are pure functions of (seed, kind, site keys), not of a
// shared counter or the scheduler, so a given seed reproduces the same
// faults at the same sites regardless of goroutine interleaving.
package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/flightrec"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// KindPanic makes a slab worker panic mid-encode.
	KindPanic Kind = iota
	// KindBitFlip flips one bit in a compressed slab blob.
	KindBitFlip
	// KindTruncate cuts a compressed slab blob short.
	KindTruncate
	// Kind 3 delayed simulated-MPI messages and is retired. The kinds
	// after it keep their values: roll hashes the kind, so a seed fires
	// at the same sites it always did.
	_
	// KindSlowClient throttles a network client's request body to a
	// trickle, exercising the server's slow-loris defenses.
	KindSlowClient
	// KindDisconnect drops a network connection mid-request-body, the
	// way an impatient or crashed client does.
	KindDisconnect
	// KindStall freezes a network client after the request is sent,
	// leaving the response unread so server write timeouts must fire.
	KindStall
	numKinds
)

// NumKinds is the number of fault classes, for sizing Config.Prob.
const NumKinds = int(numKinds)

var kindNames = [numKinds]string{
	"panic", "bitflip", "truncate", "",
	"slowclient", "disconnect", "stall",
}

func (k Kind) String() string {
	if k < 0 || k >= numKinds || kindNames[k] == "" {
		return "unknown"
	}
	return kindNames[k]
}

// Panic is the value thrown by MaybePanic, so recovery code can tell an
// injected panic from a genuine one.
type Panic struct {
	Site string
}

func (p Panic) Error() string { return "faultinject: injected panic at " + p.Site }

// Config sets per-kind firing probabilities in [0,1] and the delay
// duration of the network client faults (see FaultDelay).
type Config struct {
	Seed     uint64
	Prob     [NumKinds]float64 // indexed by Kind
	Delay    time.Duration
	MaxFires int64 // per kind; 0 means unlimited
}

// Injector decides, deterministically from its seed, whether a fault
// fires at a given site. The zero value never fires; nil never fires.
type Injector struct {
	cfg   Config
	fired [numKinds]atomic.Int64
	rec   atomic.Pointer[flightrec.Recorder]
}

// SetRecorder arms flight recording: every fault that fires is recorded
// as a KindFaultInjected event (Code = fault kind), so a postmortem dump
// distinguishes injected failures from organic ones. Safe to call
// concurrently; nil-safe on both sides.
func (in *Injector) SetRecorder(r *flightrec.Recorder) {
	if in == nil {
		return
	}
	in.rec.Store(r)
}

// New returns an Injector for cfg, or nil if no kind has a positive
// probability (so "no faults configured" and "no injector" are the same
// cheap path).
func New(cfg Config) *Injector {
	active := false
	for _, p := range cfg.Prob {
		if p > 0 {
			active = true
		}
	}
	if !active {
		return nil
	}
	if cfg.Delay <= 0 {
		cfg.Delay = 50 * time.Millisecond
	}
	return &Injector{cfg: cfg}
}

// Parse builds an Injector from a comma-separated spec like
//
//	seed=7,panic=0.2,bitflip=0.1,truncate=0.05,stall=0.3,delayms=40,max=10
//
// Unknown keys are an error; the empty spec returns (nil, nil).
func Parse(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var cfg Config
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: malformed %q (want key=value)", part)
		}
		switch key {
		case "seed":
			u, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: seed: %w", err)
			}
			cfg.Seed = u
		case "delayms":
			ms, err := strconv.ParseInt(val, 10, 64)
			if err != nil || ms < 0 {
				return nil, fmt.Errorf("faultinject: delayms: bad value %q", val)
			}
			cfg.Delay = time.Duration(ms) * time.Millisecond
		case "max":
			m, err := strconv.ParseInt(val, 10, 64)
			if err != nil || m < 0 {
				return nil, fmt.Errorf("faultinject: max: bad value %q", val)
			}
			cfg.MaxFires = m
		case "panic", "bitflip", "truncate", "slowclient", "disconnect", "stall":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("faultinject: %s: bad probability %q", key, val)
			}
			for k, name := range kindNames {
				if name == key {
					cfg.Prob[k] = p
				}
			}
		default:
			return nil, fmt.Errorf("faultinject: unknown key %q", key)
		}
	}
	return New(cfg), nil
}

// EnvVar is the environment variable FromEnv reads.
const EnvVar = "TOPOZIP_FAULTS"

// FromEnv builds an Injector from $TOPOZIP_FAULTS via Parse, returning
// nil (injection off) when unset or invalid. lookup is os.LookupEnv in
// production; tests substitute their own.
func FromEnv(lookup func(string) (string, bool)) *Injector {
	spec, ok := lookup(EnvVar)
	if !ok {
		return nil
	}
	in, err := Parse(spec)
	if err != nil {
		return nil
	}
	return in
}

// splitmix64 is the finalizer from the splitmix64 generator: a cheap,
// well-mixed hash we fold the seed, kind, and site keys through.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (in *Injector) roll(kind Kind, keys []uint64) (uint64, bool) {
	if in == nil {
		return 0, false
	}
	p := in.cfg.Prob[kind]
	if p <= 0 {
		return 0, false
	}
	h := splitmix64(in.cfg.Seed ^ (uint64(kind) + 1))
	for _, k := range keys {
		h = splitmix64(h ^ k)
	}
	// Compare the top 53 bits against the probability so p=1 always fires.
	if float64(h>>11)/float64(1<<53) >= p {
		return h, false
	}
	if in.cfg.MaxFires > 0 && in.fired[kind].Load() >= in.cfg.MaxFires {
		return h, false
	}
	in.fired[kind].Add(1)
	in.rec.Load().Record(flightrec.Event{
		Kind: flightrec.KindFaultInjected, Subsystem: "faultinject",
		Slab: -1, Code: int64(kind), Detail: kindNames[kind],
	})
	return h, true
}

// Fired reports how many times faults of the given kind have fired.
func (in *Injector) Fired(kind Kind) int64 {
	if in == nil {
		return 0
	}
	return in.fired[kind].Load()
}

// Report summarizes fired counts per kind, for logs and tests.
func (in *Injector) Report() map[string]int64 {
	if in == nil {
		return nil
	}
	m := make(map[string]int64, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		if kindNames[k] != "" {
			m[k.String()] = in.fired[k].Load()
		}
	}
	return m
}

// MaybePanic panics with a Panic value if KindPanic fires at this site.
func (in *Injector) MaybePanic(site string, keys ...uint64) {
	if _, fire := in.roll(KindPanic, keys); fire {
		panic(Panic{Site: site})
	}
}

// Corrupt returns blob with an injected bit flip or truncation if either
// kind fires at this site, copying before mutation so callers' shared
// backing arrays stay intact. The bool reports whether anything fired.
func (in *Injector) Corrupt(blob []byte, keys ...uint64) ([]byte, bool) {
	if in == nil || len(blob) == 0 {
		return blob, false
	}
	if h, fire := in.roll(KindBitFlip, keys); fire {
		out := make([]byte, len(blob))
		copy(out, blob)
		pos := int(splitmix64(h) % uint64(len(out)))
		out[pos] ^= 1 << (splitmix64(h+1) % 8)
		return out, true
	}
	if h, fire := in.roll(KindTruncate, keys); fire {
		// Keep at least one byte missing; may cut to zero length.
		keep := int(splitmix64(h) % uint64(len(blob)))
		out := make([]byte, keep)
		copy(out, blob[:keep])
		return out, true
	}
	return blob, false
}

// Maybe rolls the given kind at a site, reporting whether it fires. The
// network fault kinds (slowclient, disconnect, stall) have no intrinsic
// mechanism — the load generator applies them to its own connections —
// so they are consumed through this generic roll.
func (in *Injector) Maybe(kind Kind, keys ...uint64) bool {
	_, fire := in.roll(kind, keys)
	return fire
}

// FaultDelay returns the configured delay duration (the slow-client
// trickle interval and stall hold time), defaulting like New does.
func (in *Injector) FaultDelay() time.Duration {
	if in == nil || in.cfg.Delay <= 0 {
		return 50 * time.Millisecond
	}
	return in.cfg.Delay
}
