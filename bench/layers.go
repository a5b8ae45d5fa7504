package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/encoder"
	"repro/internal/fixed"
	"repro/internal/huffman"
	"repro/internal/integrity"
	"repro/internal/telemetry"
)

// layers collects the traced run's per-layer samples. Each traced
// operation gets a fresh collector: the benchmark's own spans wrap every
// call into a layer, and the kernel's existing stage spans (core.Options
// .TelSpan) nest under them. A nil *layers is the untraced run; every
// method is then a no-op apart from running the wrapped call.
type layers struct {
	col     *telemetry.Collector
	root    *telemetry.Span
	samples map[string][]float64
	// traces keeps the span forests of the first traced operations for
	// the Chrome trace file.
	traces []telemetry.SpanSnapshot
}

// maxTraceRoots bounds the trace file: enough operations to read the
// layer structure, small enough to commit.
const maxTraceRoots = 24

func newLayers() *layers { return &layers{samples: map[string][]float64{}} }

// begin opens the span of one traced operation on a fresh collector.
func (l *layers) begin(name string) {
	if l == nil {
		return
	}
	l.col = telemetry.New()
	l.root = l.col.Span(name)
}

// end closes the operation and returns its snapshot, keeping its spans
// for the trace file.
func (l *layers) end() telemetry.Snapshot {
	if l == nil {
		return telemetry.Snapshot{}
	}
	l.root.End()
	snap := l.col.Snapshot()
	for _, s := range snap.Spans {
		if len(l.traces) < maxTraceRoots {
			l.traces = append(l.traces, s)
		}
	}
	l.col, l.root = nil, nil
	return snap
}

// tel returns the collector of the open operation (nil when untraced).
func (l *layers) tel() *telemetry.Collector {
	if l == nil {
		return nil
	}
	return l.col
}

// span opens a benchmark-owned child span of the open operation.
func (l *layers) span(name string) *telemetry.Span {
	if l == nil {
		return nil
	}
	return l.root.Child(name)
}

// add records one sample of a per-layer metric.
func (l *layers) add(metric string, v float64) {
	if l == nil {
		return
	}
	l.samples[metric] = append(l.samples[metric], v)
}

// timed runs fn inside a benchmark span named after the metric and
// records its duration in milliseconds as a sample of metric.
func (l *layers) timed(metric string, fn func() error) error {
	if l == nil {
		return fn()
	}
	sp := l.span(strings.TrimSuffix(metric, "_ms"))
	t0 := time.Now()
	err := fn()
	l.add(metric, ms(time.Since(t0)))
	sp.End()
	return err
}

// values reduces every sampled metric to its median; metrics of layers
// the workload never reached read 0.
func (l *layers) values() map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = median(l.samples[d.name])
	}
	return out
}

// writeTrace writes the kept span forests as a Chrome trace-event file.
func (l *layers) writeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTraceSnapshot(f, telemetry.Snapshot{Spans: l.traces}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// kernelStages are the stage spans the compression kernel emits.
var kernelStages = map[string]string{
	"fixed-convert":  "core.fixed_convert_ms",
	"cp-precompute":  "core.cp_precompute_ms",
	"process":        "core.process_ms",
	"process-phase1": "core.process_ms",
	"process-phase2": "core.process_ms",
	"entropy-code":   "core.entropy_code_ms",
}

// kernelLayers folds the kernel's stage spans and counters of one
// compress operation (snap) into layer samples; wall is the operation's
// duration measured around the call. The stage spans of all slabs of the
// operation add up, so on a two-worker pipeline attributed_frac can
// exceed 1.
func (l *layers) kernelLayers(snap telemetry.Snapshot, wall time.Duration) {
	if l == nil {
		return
	}
	stage := map[string]float64{}
	var walk func(s telemetry.SpanSnapshot)
	walk = func(s telemetry.SpanSnapshot) {
		if m, ok := kernelStages[s.Name]; ok {
			stage[m] += float64(s.DurationNS) / 1e6
			return
		}
		for _, k := range s.Children {
			walk(k)
		}
	}
	for _, s := range snap.Spans {
		walk(s)
	}
	var attributed float64
	for _, m := range []string{"core.fixed_convert_ms", "core.cp_precompute_ms", "core.process_ms", "core.entropy_code_ms"} {
		l.add(m, stage[m])
		attributed += stage[m]
	}
	wallMS := ms(wall)
	l.add("core.unattributed_ms", wallMS-attributed)
	l.add("core.attributed_frac", attributed/wallMS)

	ctr := func(suffix string) float64 {
		var v int64
		for name, c := range snap.Counters {
			if strings.HasPrefix(name, "core.") && strings.HasSuffix(name, "."+suffix) {
				v += c
			}
		}
		return float64(v)
	}
	vertices := ctr("vertices")
	trials := ctr("spec_trials")
	l.add("core.derive_ms", ctr("derive_ns")/1e6)
	l.add("core.vertices", vertices)
	l.add("core.lossless_frac", ratioOf(ctr("lossless"), vertices))
	l.add("core.relaxed_frac", ratioOf(ctr("relaxed"), vertices))
	l.add("core.spec_trials", trials)
	l.add("core.spec_accept_frac", ratioOf(trials-ctr("spec_fails"), trials))
	l.add("core.spec_cutoffs", ctr("spec_cutoffs"))
	l.add("core.literal_escapes", ctr("literal_escapes"))
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "core.") && strings.HasSuffix(name, ".bound_exp_sym") && h.Count > 0 {
			l.add("core.bound_exp_p50", float64(h.Quantile(0.5)))
		}
	}
}

// ratioOf is a/b, or 0 when nothing was attempted.
func ratioOf(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replayBlocks re-runs the layers under the kernel over the workload's own
// compressed blocks, one public call per layer: container unpack, Huffman
// decode and re-encode, payload checksum, container pack, and the full
// block decode. The re-encoded sections and the re-packed container must
// equal the originals byte for byte.
func (l *layers) replayBlocks(blobs [][]byte) error {
	if l == nil {
		return nil
	}
	var unpack, hdec, henc, crc, pack, decode time.Duration
	var syms, codedBytes, rawBytes, packedBytes float64
	for _, blob := range blobs {
		t0 := time.Now()
		secs, err := encoder.Unpack(blob)
		unpack += time.Since(t0)
		if err != nil {
			return fmt.Errorf("replay unpack: %w", err)
		}
		if len(secs) != 4 {
			return fmt.Errorf("replay: block has %d sections, want 4", len(secs))
		}
		t0 = time.Now()
		expSyms, err := huffman.Decompress(secs[1])
		if err != nil {
			return fmt.Errorf("replay bound stream: %w", err)
		}
		codeSyms, err := huffman.Decompress(secs[2])
		hdec += time.Since(t0)
		if err != nil {
			return fmt.Errorf("replay code stream: %w", err)
		}
		t0 = time.Now()
		expAgain := huffman.Compress(expSyms)
		codeAgain := huffman.Compress(codeSyms)
		henc += time.Since(t0)
		if !bytes.Equal(expAgain, secs[1]) || !bytes.Equal(codeAgain, secs[2]) {
			return errors.New("replay: re-encoded Huffman sections differ from the block's")
		}
		t0 = time.Now()
		integrity.Checksum(secs[1], secs[2], secs[3])
		crc += time.Since(t0)
		t0 = time.Now()
		packed, err := encoder.Pack(secs...)
		pack += time.Since(t0)
		if err != nil {
			return fmt.Errorf("replay pack: %w", err)
		}
		if !bytes.Equal(packed, blob) {
			return errors.New("replay: re-packed container differs from the block")
		}
		raw, err := encoder.Inflate(blob)
		if err != nil {
			return fmt.Errorf("replay inflate: %w", err)
		}
		ndim, _, _, _, err := core.PeekHeader(blob)
		if err != nil {
			return fmt.Errorf("replay header: %w", err)
		}
		t0 = time.Now()
		if ndim == 3 {
			_, err = core.Decompress3D(blob)
		} else {
			_, err = core.Decompress2D(blob)
		}
		decode += time.Since(t0)
		if err != nil {
			return fmt.Errorf("replay decode: %w", err)
		}
		syms += float64(len(expSyms) + len(codeSyms))
		codedBytes += float64(len(secs[1]) + len(secs[2]))
		rawBytes += float64(len(raw))
		packedBytes += float64(len(blob))
	}
	l.add("encoder.unpack_ms", ms(unpack))
	l.add("huffman.decode_ms", ms(hdec))
	l.add("huffman.encode_ms", ms(henc))
	l.add("integrity.checksum_ms", ms(crc))
	l.add("encoder.pack_ms", ms(pack))
	l.add("core.decompress_ms", ms(decode))
	// Computed, not measured: the decode time left after the container
	// and entropy layers, i.e. Lorenzo reconstruction and dequantization.
	l.add("core.reconstruct_ms", ms(decode-unpack-hdec))
	l.add("huffman.syms", syms)
	l.add("huffman.bits_per_sym", ratioOf(8*codedBytes, syms))
	l.add("encoder.deflate_gain", ratioOf(rawBytes, packedBytes))
	return nil
}

// replayContainer opens a slab container through the archive layer,
// reads every slab blob, and replays the blocks.
func (l *layers) replayContainer(r io.ReaderAt, size int64) error {
	if l == nil {
		return nil
	}
	t0 := time.Now()
	sr, err := archive.OpenStream(r, size)
	l.add("archive.open_ms", ms(time.Since(t0)))
	if err != nil {
		return err
	}
	blobs := make([][]byte, sr.Steps())
	t0 = time.Now()
	for i := range blobs {
		if blobs[i], err = sr.ReadBlobInto(nil, i); err != nil {
			return err
		}
	}
	l.add("archive.read_blob_ms", ms(time.Since(t0)))
	l.add("archive.steps", float64(len(blobs)))
	return l.replayBlocks(blobs)
}

// replayFixed times the fixed-point conversion of the input components.
func (l *layers) replayFixed(tr fixed.Transform, comps [][]float32) {
	if l == nil {
		return
	}
	dst := make([]int64, len(comps[0]))
	t0 := time.Now()
	for _, c := range comps {
		tr.ToFixed(c, dst)
	}
	l.add("fixed.to_fixed_ms", ms(time.Since(t0)))
}

// shmLayers derives the slab-pipeline metrics from a snapshot covering
// runs compress operations of the pipeline named prefix
// ("shm.compress2d" or "shm.compress3d") with the given worker count.
// The pipeline opens every slab span when the run starts, so a slab's
// work is the sum of the kernel stage spans under it, not its own span.
func (l *layers) shmLayers(snap telemetry.Snapshot, prefix string, workers int) {
	if l == nil {
		return
	}
	var runs, slabs []float64
	var runTotal, slabTotal float64
	for _, s := range snap.Spans {
		walkNamed(s, prefix, func(run telemetry.SpanSnapshot) {
			runs = append(runs, float64(run.DurationNS)/1e6)
			runTotal += float64(run.DurationNS) / 1e6
			for _, sl := range run.Children {
				var work int64
				for _, st := range sl.Children {
					work += st.DurationNS
				}
				slabs = append(slabs, float64(work)/1e6)
				slabTotal += float64(work) / 1e6
			}
		})
	}
	if len(runs) == 0 {
		return
	}
	maxSlab := 0.0
	for _, v := range slabs {
		maxSlab = max(maxSlab, v)
	}
	l.add("shm.compress_ms", median(runs))
	l.add("shm.slab_p50_ms", median(slabs))
	l.add("shm.slab_max_ms", maxSlab)
	l.add("shm.worker_busy_frac", ratioOf(slabTotal, runTotal*float64(workers)))
	l.add("shm.slabs", float64(snap.Gauges[prefix+".slabs"]))
	l.add("shm.window", float64(snap.Gauges[prefix+".window.size"]))
	l.add("shm.peak_window_mb", float64(snap.Gauges[prefix+".window.peak_bytes"])/1e6)
	l.add("shm.retries", float64(snap.Counters[prefix+".slab.retries"])/float64(len(runs)))
	var lossless, vertices int64
	for name, c := range snap.Counters {
		if strings.HasPrefix(name, "core.") && strings.HasSuffix(name, ".lossless") {
			lossless += c
		}
		if strings.HasPrefix(name, "core.") && strings.HasSuffix(name, ".vertices") {
			vertices += c
		}
	}
	l.add("shm.lossless_frac", ratioOf(float64(lossless), float64(vertices)))
}

// walkNamed calls fn on every span named name in the tree under s.
func walkNamed(s telemetry.SpanSnapshot, name string, fn func(telemetry.SpanSnapshot)) {
	if s.Name == name {
		fn(s)
		return
	}
	for _, k := range s.Children {
		walkNamed(k, name, fn)
	}
}

// timedFile wraps the file behind the field layer's RawSource/RawSink so
// the traced run can attribute plane I/O to the field layer. Slab workers
// read concurrently, so the durations are summed atomically.
type timedFile struct {
	f         *os.File
	readNS    atomic.Int64
	readBytes atomic.Int64
	writeNS   atomic.Int64
	writeByte atomic.Int64
}

func (t *timedFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := t.f.ReadAt(p, off)
	t.readNS.Add(int64(time.Since(t0)))
	t.readBytes.Add(int64(n))
	return n, err
}

func (t *timedFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := t.f.WriteAt(p, off)
	t.writeNS.Add(int64(time.Since(t0)))
	t.writeByte.Add(int64(n))
	return n, err
}
