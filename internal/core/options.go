// Package core implements the paper's critical-point-preserving lossy
// compressor (Algorithm 2): a coupled prediction-based pipeline whose
// per-vertex error bounds come from the sign-of-determinant derivation
// theory (package derive), with the sign-uniformity relaxation, the
// speculative compression scheme of Section V-B, and block-level entry
// points used by the distributed strategies of Section VI.
//
// The compressor converts the float32 field to fixed point (package
// fixed), precomputes which cells contain critical points under the robust
// point-in-simplex test (package cp), and then visits vertices in a
// deterministic order. For each vertex it derives a sufficient bound,
// optionally speculates a larger one, quantizes all vector components
// against a Lorenzo prediction, and immediately replaces the input with
// the decompressed value so that later derivations and predictions see
// exactly what the decompressor will see.
//
// The decompressor never re-derives bounds or runs any topology code: it
// replays the visit order and reconstructs from the stored bound exponents
// and quantization codes. That asymmetry is why decompression is several
// times faster than compression, matching the paper's measurements.
package core

import (
	"fmt"

	"repro/internal/fixed"
	"repro/internal/flightrec"
	"repro/internal/telemetry"
)

// Speculation selects the speculative compression target (Table I).
type Speculation uint8

const (
	// NoSpec compresses with the derived bounds only.
	NoSpec Speculation = iota
	// ST1 speculates on the derived error bound: it compresses with a
	// relaxed bound and accepts when the realized error still meets the
	// derived bound. Cheapest target; n_l = 1.
	ST1
	// ST2 speculates on FN preservation (n_l = 1): it skips derivation,
	// compresses with a relaxed bound, and verifies that no adjacent cell
	// gains a critical point.
	ST2
	// ST3 is ST2 with n_l = 3 (more retries, larger initial relaxation).
	ST3
	// ST4 speculates on the entire preservation procedure (n_l = 3):
	// detection result and critical point type are verified on every
	// adjacent cell, so even vertices of cells containing critical points
	// may be compressed lossily.
	ST4
)

// String returns the abbreviation used in the paper's tables.
func (s Speculation) String() string {
	switch s {
	case NoSpec:
		return "NoSpec"
	case ST1:
		return "ST1"
	case ST2:
		return "ST2"
	case ST3:
		return "ST3"
	case ST4:
		return "ST4"
	default:
		return fmt.Sprintf("Speculation(%d)", uint8(s))
	}
}

// retries returns n_l, the speculation failure limit.
func (s Speculation) retries() int {
	switch s {
	case ST1, ST2:
		return 1
	case ST3, ST4:
		return 3
	default:
		return 0
	}
}

// Options configures compression.
type Options struct {
	// Tau is the user-specified absolute error bound τ (in the units of
	// the input field). Errors stay within τ except where the
	// sign-uniformity relaxation or speculation proves the data carries
	// no critical point topology.
	Tau float64
	// Spec selects the speculation target; the zero value is NoSpec.
	Spec Speculation

	// Ablation knobs (default false = the paper's Algorithm 2). They
	// exist for the ablation study in DESIGN.md.

	// DisableRelaxation skips the sign-uniformity relaxation (Algorithm 2
	// lines 11–15). Still sound; typically lowers the ratio on data with
	// sign-uniform regions.
	DisableRelaxation bool
	// OrientationOnly derives bounds from the simplex orientation
	// determinant alone, dropping the origin-substituted submatrix
	// predicates of Theorem 2. UNSOUND — preservation can fail; the
	// ablation demonstrates why the extra predicates are necessary.
	OrientationOnly bool

	// Tel, when non-nil, receives per-stage spans, speculation and
	// relaxation counters, and the bound-exponent histogram of the run.
	// nil (the default) disables telemetry; instrumented paths then cost
	// one nil check per event.
	Tel *telemetry.Collector
	// TelSpan optionally parents the encoder's stage spans (the
	// distributed strategies pass a per-rank span here). When nil and Tel
	// is set, the encoder opens its own root span.
	TelSpan *telemetry.Span
	// Rec, when non-nil, records the first speculation rollback of each
	// vertex and every hard cut-off to lossless into the flight recorder.
	// Only the first rejected trial per vertex is recorded — speculation
	// retries by design, and recording each of n_l restrictions would
	// flood the ring without adding diagnosis value.
	Rec *flightrec.Recorder
	// RecSlab attributes the kernel's flight-recorder events to a slab
	// (-1 when the encoder is not slab-scoped).
	RecSlab int
}

// Stats reports what the encoder did; useful for tuning and for the
// ablation study.
type Stats struct {
	// Vertices is the number of own vertices compressed.
	Vertices int
	// Lossless counts vertices stored with bound 0.
	Lossless int
	// Relaxed counts vertices where the sign-uniformity relaxation
	// raised at least one adjacent cell's bound beyond min(Ψ, τ′).
	Relaxed int
	// SpecTrials and SpecFails count speculation attempts and rejected
	// attempts.
	SpecTrials, SpecFails int
	// SpecCutoffs counts vertices where speculation hit the hard cut-off
	// (n_l failures, or the trial bound shrank to zero) and fell back to
	// lossless storage.
	SpecCutoffs int
	// Literals counts component values escaped to the literal stream.
	Literals int
}

// Add accumulates o into s, for aggregating per-block stats of a
// distributed run.
func (s *Stats) Add(o Stats) {
	s.Vertices += o.Vertices
	s.Lossless += o.Lossless
	s.Relaxed += o.Relaxed
	s.SpecTrials += o.SpecTrials
	s.SpecFails += o.SpecFails
	s.SpecCutoffs += o.SpecCutoffs
	s.Literals += o.Literals
}

// Validate reports whether the options are usable. A NaN, infinite or
// non-positive Tau is a *fixed.DomainError naming the parameter: no
// finite bound derives from it, and the fixed-point conversion would
// silently turn it into lossless storage.
func (o Options) Validate() error {
	if err := fixed.CheckParam("tau", o.Tau); err != nil {
		return err
	}
	if o.Tau <= 0 {
		return &fixed.DomainError{Param: "tau", Value: o.Tau}
	}
	if o.Spec > ST4 {
		return fmt.Errorf("core: unknown speculation target %d", o.Spec)
	}
	return nil
}
