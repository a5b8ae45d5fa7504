package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Manifest is the per-run provenance record written beside every archive:
// what was compressed (dataset dims and content hash), how (codec, error
// bound, speculation target, block format version), how it went (wall
// time, throughput, slab decomposition, fault-tolerance outcome, bound
// statistics), and — once topozip verify has run — the topology-fidelity
// result. It is the machine-readable answer to "which run produced this
// file and can I trust it", rendered by topozip info/verify and diffable
// across runs like every other telemetry JSON (deterministic field
// order).
type Manifest struct {
	Tool string `json:"tool"`
	// SchemaVersion identifies the manifest layout, not the block format.
	SchemaVersion int   `json:"schema_version"`
	CreatedUnixNS int64 `json:"created_unix_ns"`
	// Command is the CLI invocation that produced the archive.
	Command string `json:"command,omitempty"`

	Dataset    ManifestDataset     `json:"dataset"`
	Codec      ManifestCodec       `json:"codec"`
	Run        ManifestRun         `json:"run"`
	Bounds     ManifestBounds      `json:"bounds"`
	Predicates *ManifestPredicates `json:"predicates,omitempty"`
	Fidelity   *ManifestFidelity   `json:"fidelity,omitempty"`
	// Metrics optionally embeds the full telemetry snapshot of the run.
	Metrics *Snapshot `json:"metrics,omitempty"`
}

// ManifestSchemaVersion is the current manifest layout version.
const ManifestSchemaVersion = 1

// ManifestDataset identifies the input field.
type ManifestDataset struct {
	Dims       []int  `json:"dims"`
	Components int    `json:"components"`
	RawBytes   int64  `json:"raw_bytes"`
	SHA256     string `json:"sha256,omitempty"`
}

// ManifestCodec identifies the encoder and its settings.
type ManifestCodec struct {
	Name string `json:"name"`
	// FormatVersion is the block format version the encoder emitted.
	FormatVersion int    `json:"format_version"`
	Spec          string `json:"spec"`
	// Tau is the absolute error bound the encoder ran with; TauRelative
	// holds the user's range-relative input when -abs was not given.
	Tau         float64 `json:"tau"`
	TauRelative float64 `json:"tau_relative,omitempty"`
}

// ManifestRun records the execution outcome.
type ManifestRun struct {
	WallNS          int64   `json:"wall_ns"`
	ThroughputMBps  float64 `json:"throughput_mbps"`
	CompressedBytes int64   `json:"compressed_bytes"`
	Ratio           float64 `json:"ratio"`
	Slabs           int     `json:"slabs,omitempty"`
	Workers         int     `json:"workers,omitempty"`
	// Out-of-core outcome: the slab-window size the streaming pipeline
	// ran with and the peak bytes it held admitted at once (raw slab
	// buffers plus sealed-but-unflushed blobs). Zero for in-memory runs.
	Window          int   `json:"window,omitempty"`
	PeakWindowBytes int64 `json:"peak_window_bytes,omitempty"`
	// Fault-tolerance outcome: recovered worker panics and the slabs
	// that degraded to the lossless escape encoding.
	Panics        int    `json:"panics,omitempty"`
	DegradedSlabs []int  `json:"degraded_slabs,omitempty"`
	Degradation   string `json:"degradation,omitempty"`
	// FlightRecorder is the path of the postmortem dump, when one was
	// written.
	FlightRecorder string `json:"flight_recorder,omitempty"`
}

// ManifestBounds carries the per-vertex bound statistics of the encoder.
type ManifestBounds struct {
	Vertices    int64 `json:"vertices"`
	Lossless    int64 `json:"lossless"`
	Relaxed     int64 `json:"relaxed"`
	Literals    int64 `json:"literals"`
	SpecTrials  int64 `json:"spec_trials"`
	SpecFails   int64 `json:"spec_fails"`
	SpecCutoffs int64 `json:"spec_cutoffs"`
	// BoundExp is the bound-exponent histogram (tightness distribution of
	// the stored bounds), quantiles included.
	BoundExp *HistSnapshot `json:"bound_exp,omitempty"`
}

// ManifestPredicates records the filtered-predicate efficacy of the
// run: how many sign / quotient evaluations each certification stage
// resolved and the resulting accept rates. The stage counts per family
// sum to that family's total calls (see internal/exact/filter).
type ManifestPredicates struct {
	Orient2Fast uint64 `json:"orient2_fast"`
	Orient2Zero uint64 `json:"orient2_zero"`
	Orient2Wide uint64 `json:"orient2_wide"`

	Orient3Static uint64 `json:"orient3_static"`
	Orient3Run    uint64 `json:"orient3_run"`
	Orient3Zero   uint64 `json:"orient3_zero"`
	Orient3Exact  uint64 `json:"orient3_exact"`
	Orient3Wide   uint64 `json:"orient3_wide"`

	PsiCert     uint64 `json:"psi_cert"`
	PsiFallback uint64 `json:"psi_fallback"`

	Orient3AcceptRate float64 `json:"orient3_accept_rate"`
	PsiCertRate       float64 `json:"psi_cert_rate"`
}

// ManifestFidelity is the verify outcome: critical-point preservation
// counts and pointwise error metrics.
type ManifestFidelity struct {
	TP             int     `json:"tp"`
	FP             int     `json:"fp"`
	FN             int     `json:"fn"`
	FT             int     `json:"ft"`
	MaxAbsError    float64 `json:"max_abs_error"`
	PSNRdB         float64 `json:"psnr_db"`
	Preserved      bool    `json:"preserved"`
	VerifiedUnixNS int64   `json:"verified_unix_ns"`
}

// ManifestPath derives the manifest's location from its archive's path.
func ManifestPath(archivePath string) string { return archivePath + ".manifest.json" }

// NewManifest starts a manifest stamped with the current time.
func NewManifest(tool string) *Manifest {
	return &Manifest{Tool: tool, SchemaVersion: ManifestSchemaVersion, CreatedUnixNS: time.Now().UnixNano()}
}

// WriteFile writes the manifest as indented, deterministic JSON.
func (m *Manifest) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadManifest loads a manifest written by WriteFile.
func ReadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("manifest %s: %w", path, err)
	}
	if m.SchemaVersion > ManifestSchemaVersion {
		return nil, fmt.Errorf("manifest %s: schema version %d is newer than this build understands (%d)",
			path, m.SchemaVersion, ManifestSchemaVersion)
	}
	return &m, nil
}

// Render writes the human-readable manifest summary topozip info prints.
func (m *Manifest) Render(w io.Writer) error {
	created := time.Unix(0, m.CreatedUnixNS).UTC().Format(time.RFC3339)
	if _, err := fmt.Fprintf(w, "manifest: %s schema v%d, created %s\n", m.Tool, m.SchemaVersion, created); err != nil {
		return err
	}
	hash := m.Dataset.SHA256
	if len(hash) > 12 {
		hash = hash[:12] + "…"
	}
	if _, err := fmt.Fprintf(w, "  dataset: dims %v, %d components, %d raw bytes, sha256 %s\n",
		m.Dataset.Dims, m.Dataset.Components, m.Dataset.RawBytes, hash); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  codec: %s format v%d, spec %s, tau %g\n",
		m.Codec.Name, m.Codec.FormatVersion, m.Codec.Spec, m.Codec.Tau); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  run: %v wall, %.2f MB/s, ratio %.2f",
		time.Duration(m.Run.WallNS).Round(time.Microsecond), m.Run.ThroughputMBps, m.Run.Ratio); err != nil {
		return err
	}
	if m.Run.Slabs > 0 {
		if _, err := fmt.Fprintf(w, ", %d slabs on %d workers", m.Run.Slabs, m.Run.Workers); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	if m.Run.Degradation != "" {
		if _, err := fmt.Fprintf(w, "  degradation: %s\n", m.Run.Degradation); err != nil {
			return err
		}
	}
	if m.Run.FlightRecorder != "" {
		if _, err := fmt.Fprintf(w, "  flight recorder: %s\n", m.Run.FlightRecorder); err != nil {
			return err
		}
	}
	b := m.Bounds
	if _, err := fmt.Fprintf(w, "  bounds: %d vertices (%d lossless, %d relaxed, %d literals), speculation %d/%d/%d trials/fails/cutoffs\n",
		b.Vertices, b.Lossless, b.Relaxed, b.Literals, b.SpecTrials, b.SpecFails, b.SpecCutoffs); err != nil {
		return err
	}
	if p := m.Predicates; p != nil {
		if _, err := fmt.Fprintf(w, "  predicates: 2D %d fast / %d wide; 3D %d static + %d run + %d zero accepts, %d exact, %d wide (%.1f%% filtered); Ψ %d certified / %d exact (%.1f%%)\n",
			p.Orient2Fast, p.Orient2Wide,
			p.Orient3Static, p.Orient3Run, p.Orient3Zero, p.Orient3Exact, p.Orient3Wide,
			100*p.Orient3AcceptRate, p.PsiCert, p.PsiFallback, 100*p.PsiCertRate); err != nil {
			return err
		}
	}
	if b.BoundExp != nil && b.BoundExp.Count > 0 {
		if _, err := fmt.Fprintf(w, "  bound exponents: p50=%d p90=%d p99=%d (of %d)\n",
			b.BoundExp.P50, b.BoundExp.P90, b.BoundExp.P99, b.BoundExp.Count); err != nil {
			return err
		}
	}
	if f := m.Fidelity; f != nil {
		verdict := "NOT preserved"
		if f.Preserved {
			verdict = "preserved"
		}
		if _, err := fmt.Fprintf(w, "  fidelity: TP=%d FP=%d FN=%d FT=%d, max abs err %.6g, PSNR %.2f dB — critical points %s\n",
			f.TP, f.FP, f.FN, f.FT, f.MaxAbsError, f.PSNRdB, verdict); err != nil {
			return err
		}
	}
	return nil
}
