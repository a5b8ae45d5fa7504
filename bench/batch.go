package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/analysis"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/datagen"
	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/shm"
	"repro/internal/telemetry"
)

// batchCase is an instantiated batch workload: one input and the three
// operations every rep runs on it. Each operation returns the duration
// of the call into the program alone; the correctness checks run outside
// that interval.
type batchCase interface {
	rawBytes() int64
	compress(l *layers) ([]byte, time.Duration, error)
	decompress(comp []byte, l *layers) (time.Duration, error)
	verify(comp []byte, l *layers) (time.Duration, error)
	// replay runs the traced run's per-layer replays on comp and folds
	// the operation's snapshot (compress took cwall) into layer samples.
	replay(comp []byte, snap telemetry.Snapshot, cwall time.Duration, l *layers) error
	// damage corrupts the stored compressed output (test hook).
	damage(comp []byte) error
	// final runs the checks that need the whole run.
	final(m *meter) error
	close() error
}

// minReps keeps the means defined when one rep outlasts the run.
const minReps = 2

// repShape is how many times a batch workload's rep decompresses and
// verifies the output of its one compress. The host's speed swings by a
// quarter and more from one operation to the next, so a metric is only
// as steady as the number of its samples. The counts give the short
// operations more calls per rep.
type repShape struct {
	decompresses, verifies int
}

// measureBatch runs reps until the run time is spent: one compress, then
// shape.decompresses decompress calls and shape.verifies verify calls on
// its output. Every call is one sample of its operation, and a rep is one
// compress → decompress → verify round trip (the mean decompress and
// verify call counting once). Every call starts after a host-speed sample
// (calib.go), which also collects the heap. In the traced run odd reps
// are traced and even reps are not, so the tracing overhead is measured
// within one process.
func measureBatch(bc batchCase, shape repShape, m *meter) (map[string]float64, error) {
	var cs, ds, vs, trips, traced, untraced []float64
	var last []byte
	// calls runs op n times, each after a host-speed sample, appends each
	// call's duration to *samples, and returns the mean; ok is false when
	// a call failed its check.
	calls := func(samples *[]float64, name string, n int, op func() (time.Duration, error)) (mean float64, ok bool) {
		sum := 0.0
		for k := 0; k < n; k++ {
			m.sampleHost()
			d, err := op()
			if !m.check(name, err) {
				return 0, false
			}
			*samples = append(*samples, d.Seconds())
			sum += d.Seconds()
		}
		return sum / float64(n), true
	}
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < m.cfg.seconds; i++ {
		var l *layers
		if m.lay != nil && i%2 == 1 {
			l = m.lay
		}
		m.sampleHost()
		l.begin("bench.rep")
		comp, cd, err := bc.compress(l)
		if !m.check("compress", err) {
			l.end()
			continue
		}
		if m.cfg.corrupt && i == 0 {
			if err := bc.damage(comp); err != nil {
				return nil, err
			}
		}
		dd, ok := calls(&ds, "decompress", shape.decompresses, func() (time.Duration, error) { return bc.decompress(comp, l) })
		if !ok {
			l.end()
			continue
		}
		vd, ok := calls(&vs, "verify", shape.verifies, func() (time.Duration, error) { return bc.verify(comp, l) })
		if !ok {
			l.end()
			continue
		}
		if l != nil {
			snap := l.end()
			m.check("replay", bc.replay(comp, snap, cd, l))
			traced = append(traced, cd.Seconds())
		} else {
			untraced = append(untraced, cd.Seconds())
		}
		cs = append(cs, cd.Seconds())
		trips = append(trips, cd.Seconds()+dd+vd)
		last = comp
	}
	elapsed := time.Since(start).Seconds()
	m.check("final", bc.final(m))
	if len(cs) == 0 {
		return nil, errors.New("no rep completed")
	}
	m.logf("reps: n=%d over %.1fs, each 1 compress, %d decompresses, %d verifies",
		len(cs), elapsed, shape.decompresses, shape.verifies)
	m.series("compress", cs)
	m.series("decompress", ds)
	m.series("verify", vs)
	mb := float64(bc.rawBytes()) / 1e6
	vals := map[string]float64{
		"compress_mbps":   mb / trimmedMean(cs),
		"decompress_mbps": mb / trimmedMean(ds),
		"verify_mbps":     mb / trimmedMean(vs),
		"ratio":           float64(bc.rawBytes()) / float64(len(last)),
		"req_p50_ms":      1e3 * median(trips),
		// One caller doing round trips back to back: its capacity is
		// round trips per second of round-trip time.
		"capacity_rps": 1 / trimmedMean(trips),
	}
	if m.lay != nil && len(traced) > 0 && len(untraced) > 0 {
		m.lay.add("bench.trace_overhead_frac", trimmedMean(traced)/trimmedMean(untraced)-1)
	}
	return vals, nil
}

// memField is an in-memory 2D or 3D field.
type memField struct {
	f2 *field.Field2D
	f3 *field.Field3D
}

func (m memField) comps() [][]float32 {
	if m.f3 != nil {
		return m.f3.Components()
	}
	return m.f2.Components()
}

func (m memField) cells() int {
	if m.f3 != nil {
		return field.Mesh3D{NX: m.f3.NX, NY: m.f3.NY, NZ: m.f3.NZ}.NumCells()
	}
	return field.Mesh2D{NX: m.f2.NX, NY: m.f2.NY}.NumCells()
}

func (m memField) compress(tr fixed.Transform, opts core.Options) ([]byte, error) {
	if m.f3 != nil {
		return core.CompressField3D(m.f3, tr, opts)
	}
	return core.CompressField2D(m.f2, tr, opts)
}

func (m memField) decode(blob []byte) (memField, error) {
	if m.f3 != nil {
		f, err := core.Decompress3D(blob)
		return memField{f3: f}, err
	}
	f, err := core.Decompress2D(blob)
	return memField{f2: f}, err
}

func (m memField) detect(tr fixed.Transform) []cp.Point {
	if m.f3 != nil {
		return cp.DetectField3D(m.f3, tr)
	}
	return cp.DetectField2D(m.f2, tr)
}

// rangeOf is max−min over every component: the base of the
// range-relative error bound, as the CLI and the codec compute it.
func rangeOf(comps [][]float32) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range comps {
		for _, v := range c {
			lo = math.Min(lo, float64(v))
			hi = math.Max(hi, float64(v))
		}
	}
	if hi <= lo {
		return 1
	}
	return hi - lo
}

// relTau is the error bound of every workload, relative to the value range.
const relTau = 0.01

// cropOrigin picks the seeded origin of an n-point window inside a grid
// generated with cropMargin more points per axis: every seed gives
// another input with the same structure, so run-to-run spread measures
// the program and the host, not a change of workload. Wider margins
// changed the work itself: with a 1.25× grid the compression ratio moved
// 4–9% between seeds, and with 1/32 more points the degenerate
// predicates that critical-point detection hands to Simulation of
// Simplicity on the decoded ocean field ranged over 0.82–1.36 million,
// as the window took in more or less of the land strips at its sides.
// With cropMargin they vary by 0.4% there.
func cropOrigin(rng *rand.Rand, n int) int { return rng.Intn(grown(n) - n + 1) }

const cropMargin = 3

func grown(n int) int { return n + cropMargin }

func crop2D(g *field.Field2D, x0, y0, nx, ny int) *field.Field2D {
	f := field.NewField2D(nx, ny)
	for j := 0; j < ny; j++ {
		src := (y0+j)*g.NX + x0
		copy(f.U[j*nx:(j+1)*nx], g.U[src:])
		copy(f.V[j*nx:(j+1)*nx], g.V[src:])
	}
	return f
}

func crop3D(g *field.Field3D, x0, y0, z0, nx, ny, nz int) *field.Field3D {
	f := field.NewField3D(nx, ny, nz)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			src := ((z0+k)*g.NY+y0+j)*g.NX + x0
			dst := (k*ny + j) * nx
			copy(f.U[dst:dst+nx], g.U[src:])
			copy(f.V[dst:dst+nx], g.V[src:])
			copy(f.W[dst:dst+nx], g.W[src:])
		}
	}
	return f
}

// gen2D generates the workload's 2D input: a seeded crop of a slightly
// larger generated field.
func gen2D(seed int64, nx, ny int, gen func(nx, ny int) *field.Field2D) *field.Field2D {
	rng := rand.New(rand.NewSource(seed))
	x0, y0 := cropOrigin(rng, nx), cropOrigin(rng, ny)
	return crop2D(gen(grown(nx), grown(ny)), x0, y0, nx, ny)
}

func gen3D(seed int64, nx, ny, nz int, gen func(nx, ny, nz int) *field.Field3D) *field.Field3D {
	rng := rand.New(rand.NewSource(seed))
	x0, y0, z0 := cropOrigin(rng, nx), cropOrigin(rng, ny), cropOrigin(rng, nz)
	return crop3D(gen(grown(nx), grown(ny), grown(nz)), x0, y0, z0, nx, ny, nz)
}

// checkPreserved compares the decoded critical points with the reference
// set and the pointwise error with the bound.
func checkPreserved(ref, got []cp.Point, orig, dec [][]float32, tau float64) error {
	if rep := cp.Compare(ref, got); !rep.Preserved() {
		return fmt.Errorf("critical points not preserved: %v", rep)
	}
	if e := analysis.MaxAbsError(orig, dec); e > tau {
		return fmt.Errorf("max error %g exceeds %g", e, tau)
	}
	return nil
}

// checkDecoded detects the critical points of the decoded field g, timed
// as the cp layer in a traced run, and checks them and the pointwise
// error against the reference.
func checkDecoded(l *layers, g memField, tr fixed.Transform, ref []cp.Point, orig [][]float32, ceil float64) error {
	var got []cp.Point
	t0 := time.Now()
	l.timed("cp.detect_ms", func() error { got = g.detect(tr); return nil })
	l.add("cp.mcells_per_s", float64(g.cells())/1e6/time.Since(t0).Seconds())
	sp := l.span("cp.compare")
	defer sp.End()
	return checkPreserved(ref, got, orig, g.comps(), ceil)
}

// memCase runs the single-node in-memory pipeline: core.CompressField*D
// and core.Decompress*D on one goroutine.
type memCase struct {
	f    memField
	tr   fixed.Transform
	opts core.Options
	ref  []cp.Point
	want []byte  // the warm-up output every rep must reproduce
	ceil float64 // the pointwise error the compressor guarantees
}

// errCeiling is the pointwise error bound the compressor guarantees: τ,
// except that ST2–ST4 start speculating from R(τ) = 2^n_l·τ (DESIGN.md,
// Speculation) and verify topology, not error, on every trial. core keeps
// n_l unexported (Speculation.retries), so this copies it and must follow
// any change there.
func errCeiling(spec core.Speculation, tau float64) float64 {
	switch spec {
	case core.ST2:
		return 2 * tau
	case core.ST3, core.ST4:
		return 8 * tau
	}
	return tau
}

func newMemCase(f memField, spec core.Speculation) (*memCase, error) {
	comps := f.comps()
	tr, err := fixed.Fit(comps...)
	if err != nil {
		return nil, err
	}
	c := &memCase{f: f, tr: tr, opts: core.Options{Tau: relTau * rangeOf(comps), Spec: spec}}
	c.ceil = errCeiling(spec, c.opts.Tau)
	c.ref = f.detect(tr)
	// Warm-up op: the first compression, kept as the expected output.
	if c.want, err = f.compress(tr, c.opts); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *memCase) rawBytes() int64 {
	n := int64(0)
	for _, comp := range c.f.comps() {
		n += 4 * int64(len(comp))
	}
	return n
}

func (c *memCase) compress(l *layers) ([]byte, time.Duration, error) {
	opts := c.opts
	sp := l.span("core.compress")
	if sp != nil {
		opts.Tel, opts.TelSpan = l.tel(), sp
	}
	t0 := time.Now()
	blob, err := c.f.compress(c.tr, opts)
	d := time.Since(t0)
	sp.End()
	if err != nil {
		return nil, d, err
	}
	if !bytes.Equal(blob, c.want) {
		return nil, d, errors.New("compressed bytes differ from the warm-up run")
	}
	return blob, d, nil
}

func (c *memCase) decompress(comp []byte, l *layers) (time.Duration, error) {
	sp := l.span("core.decompress")
	t0 := time.Now()
	g, err := c.f.decode(comp)
	d := time.Since(t0)
	sp.End()
	if err != nil {
		return d, err
	}
	if e := analysis.MaxAbsError(c.f.comps(), g.comps()); e > c.ceil {
		return d, fmt.Errorf("max error %g exceeds %g", e, c.ceil)
	}
	return d, nil
}

// verify is the topozip verify round: decode, detect critical points on
// the decoded field, compare with the reference, check the error bound.
func (c *memCase) verify(comp []byte, l *layers) (time.Duration, error) {
	t0 := time.Now()
	sp := l.span("core.decompress")
	g, err := c.f.decode(comp)
	sp.End()
	if err != nil {
		return time.Since(t0), err
	}
	err = checkDecoded(l, g, c.tr, c.ref, c.f.comps(), c.ceil)
	return time.Since(t0), err
}

func (c *memCase) replay(comp []byte, snap telemetry.Snapshot, cwall time.Duration, l *layers) error {
	l.kernelLayers(snap, cwall)
	l.add("cp.points", float64(len(c.ref)))
	l.replayFixed(c.tr, c.f.comps())
	return l.replayBlocks([][]byte{comp})
}

func (c *memCase) damage(comp []byte) error {
	comp[len(comp)/2] ^= 0x55
	return nil
}

func (c *memCase) final(*meter) error { return nil }
func (c *memCase) close() error       { return nil }

// Streaming workload: the codec layer over files, on the windowed slab
// pipeline.

// streamWorkers and streamBudget are the slab pipeline's settings: two
// workers (the box has two cores) and a 4 MiB budget, which on the
// hurricane input yields 16 slabs admitted two at a time. A 2 MiB budget
// collapses to a window of one and stores most vertices losslessly.
const (
	streamWorkers = 2
	streamBudget  = 4 << 20
)

type streamCase struct {
	dir      string
	in       *os.File
	outPath  string
	decPath  string
	f        *field.Field3D
	c        codec.Codec
	params   codec.Params
	tr       fixed.Transform
	tauAbs   float64
	ref      []cp.Point
	first    [32]byte // SHA-256 of the warm-up container
	firstDec [32]byte // SHA-256 of the first decoded raw file
	haveDec  bool
	comps    [][]float32
}

func newStreamCase(dir string, f *field.Field3D) (*streamCase, error) {
	c, err := codec.Lookup(codec.FormatCP, 0)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	inPath := filepath.Join(dir, "input.raw")
	sc := &streamCase{
		dir: dir, f: f, c: c, comps: f.Components(),
		outPath: filepath.Join(dir, "output.tzc"),
		decPath: filepath.Join(dir, "decoded.raw"),
		params: codec.Params{
			Dims: []int{f.NX, f.NY, f.NZ}, Tau: relTau, Spec: "NoSpec",
			Pipeline: shm.Options{Workers: streamWorkers, MaxMemBytes: streamBudget},
		},
	}
	if err := writeRawFile(inPath, sc.comps); err != nil {
		return nil, err
	}
	if sc.in, err = os.Open(inPath); err != nil {
		return nil, err
	}
	if sc.tr, err = fixed.Fit(sc.comps...); err != nil {
		sc.close()
		return nil, err
	}
	sc.tauAbs = relTau * rangeOf(sc.comps)
	sc.ref = cp.DetectField3D(f, sc.tr)
	// Warm-up op: the first compression fixes the expected container.
	comp, _, err := sc.compress(nil)
	if err != nil {
		sc.close()
		return nil, err
	}
	sc.first = sha256.Sum256(comp)
	return sc, nil
}

func writeRawFile(path string, comps [][]float32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := field.WriteRaw(w, comps...); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (sc *streamCase) rawBytes() int64 { return int64(len(sc.comps)) * 4 * int64(len(sc.comps[0])) }

// compressFile streams src through the codec into the container file.
func (sc *streamCase) compressFile(src field.SlabSource, p codec.Params) error {
	out, err := os.Create(sc.outPath)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(out, 1<<20)
	_, err = sc.c.Compress(src, w, p)
	if err == nil {
		err = w.Flush()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

func (sc *streamCase) compress(l *layers) ([]byte, time.Duration, error) {
	p := sc.params
	var r io.ReaderAt = sc.in
	tf := &timedFile{f: sc.in}
	if l != nil {
		r = tf
		p.Pipeline.Tel = l.tel()
	}
	src, err := field.NewRawSource(r, p.Dims...)
	if err != nil {
		return nil, 0, err
	}
	sp := l.span("codec.compress")
	t0 := time.Now()
	err = sc.compressFile(src, p)
	d := time.Since(t0)
	sp.End()
	if err != nil {
		return nil, d, err
	}
	if l != nil {
		l.add("codec.compress_ms", ms(d))
		l.add("field.read_ms", float64(tf.readNS.Load())/1e6)
		l.add("field.read_mb", float64(tf.readBytes.Load())/1e6)
	}
	comp, err := os.ReadFile(sc.outPath)
	if err != nil {
		return nil, d, err
	}
	if sc.first != ([32]byte{}) && sha256.Sum256(comp) != sc.first {
		return nil, d, errors.New("container differs from the warm-up run")
	}
	return comp, d, nil
}

// decodeFile streams the container file through the codec into sink.
func (sc *streamCase) decodeFile(sinkFor func(dims []int) (shm.PlaneSink, error)) error {
	in, err := os.Open(sc.outPath)
	if err != nil {
		return err
	}
	defer in.Close()
	st, err := in.Stat()
	if err != nil {
		return err
	}
	_, err = sc.c.Decompress(in, st.Size(), codec.Params{Dims: sc.params.Dims, Pipeline: sc.params.Pipeline}, sinkFor)
	return err
}

// decodeToFile streams the container file through the codec into the
// decoded raw file, timing its writes when tf is non-nil.
func (sc *streamCase) decodeToFile(tf *timedFile) error {
	out, err := os.Create(sc.decPath)
	if err != nil {
		return err
	}
	var w io.WriterAt = out
	if tf != nil {
		tf.f, w = out, tf
	}
	err = sc.decodeFile(func(dims []int) (shm.PlaneSink, error) { return field.NewRawSink(w, dims...) })
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

func (sc *streamCase) decompress(comp []byte, l *layers) (time.Duration, error) {
	var tf *timedFile
	if l != nil {
		tf = &timedFile{}
	}
	sp := l.span("codec.decompress")
	t0 := time.Now()
	err := sc.decodeToFile(tf)
	d := time.Since(t0)
	sp.End()
	if err != nil {
		return d, err
	}
	if l != nil {
		l.add("codec.decompress_ms", ms(d))
		l.add("field.write_ms", float64(tf.writeNS.Load())/1e6)
		l.add("field.write_mb", float64(tf.writeByte.Load())/1e6)
	}
	dec, err := os.ReadFile(sc.decPath)
	if err != nil {
		return d, err
	}
	sum := sha256.Sum256(dec)
	if !sc.haveDec {
		sc.firstDec, sc.haveDec = sum, true
	} else if sum != sc.firstDec {
		return d, errors.New("decoded raw file differs from the first decode")
	}
	return d, nil
}

// planeSink receives decoded planes into in-memory components; the
// decoder writes disjoint plane spans concurrently.
type planeSink struct {
	comps [][]float32
	plane int
}

func (s planeSink) WritePlanes(start int, comps [][]float32) error {
	off := start * s.plane
	if len(comps) != len(s.comps) || off+len(comps[0]) > len(s.comps[0]) {
		return fmt.Errorf("sink: planes from %d out of range", start)
	}
	for c := range comps {
		copy(s.comps[c][off:], comps[c])
	}
	return nil
}

// memSinkFor returns a sink factory that decodes into *out.
func memSinkFor(out *memField) func(dims []int) (shm.PlaneSink, error) {
	return func(dims []int) (shm.PlaneSink, error) {
		switch len(dims) {
		case 2:
			*out = memField{f2: field.NewField2D(dims[0], dims[1])}
			return planeSink{out.comps(), dims[0]}, nil
		case 3:
			*out = memField{f3: field.NewField3D(dims[0], dims[1], dims[2])}
			return planeSink{out.comps(), dims[0] * dims[1]}, nil
		}
		return nil, fmt.Errorf("sink: unsupported dims %v", dims)
	}
}

func (sc *streamCase) verify(comp []byte, l *layers) (time.Duration, error) {
	t0 := time.Now()
	var g memField
	sp := l.span("codec.decompress")
	err := sc.decodeFile(memSinkFor(&g))
	sp.End()
	if err != nil {
		return time.Since(t0), err
	}
	err = checkDecoded(l, g, sc.tr, sc.ref, sc.comps, sc.tauAbs)
	return time.Since(t0), err
}

func (sc *streamCase) replay(comp []byte, snap telemetry.Snapshot, cwall time.Duration, l *layers) error {
	l.kernelLayers(snap, cwall)
	l.shmLayers(snap, "shm.compress3d", streamWorkers)
	l.add("cp.points", float64(len(sc.ref)))
	l.replayFixed(sc.tr, sc.comps)
	if err := l.replayContainer(bytes.NewReader(comp), int64(len(comp))); err != nil {
		return err
	}
	var g memField
	return l.timed("shm.decompress_ms", func() error {
		_, err := shm.DecompressTo(bytes.NewReader(comp), int64(len(comp)),
			shm.Options{Workers: streamWorkers, MaxMemBytes: streamBudget}, memSinkFor(&g))
		return err
	})
}

func (sc *streamCase) damage([]byte) error {
	f, err := os.OpenFile(sc.outPath, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	b := []byte{0}
	if _, err := f.ReadAt(b, st.Size()/2); err != nil {
		f.Close()
		return err
	}
	b[0] ^= 0x55
	if _, err := f.WriteAt(b, st.Size()/2); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// final checks that the two-worker output equals a one-worker run of the
// same input: the slab pipeline's output must not depend on scheduling.
func (sc *streamCase) final(m *meter) error {
	var buf bytes.Buffer
	p := sc.params
	p.Pipeline.Workers = 1
	if _, err := sc.c.Compress(field.Mem3D(sc.f), &buf, p); err != nil {
		return err
	}
	if sha256.Sum256(buf.Bytes()) != sc.first {
		return errors.New("one-worker container differs from the two-worker container")
	}
	return nil
}

func (sc *streamCase) close() error {
	if sc.in != nil {
		sc.in.Close()
	}
	return os.RemoveAll(sc.dir)
}

// The batch workloads at full scale; config.quick shrinks every grid so
// the test suite can run all of them in seconds.

func setupOcean(m *meter) (batchCase, error) {
	nx, ny := 768, 576
	if m.cfg.quick {
		nx, ny = 48, 36
	}
	return newMemCase(memField{f2: gen2D(m.cfg.seed, nx, ny, datagen.Ocean)}, core.NoSpec)
}

func setupNek(m *meter) (batchCase, error) {
	n := 48
	if m.cfg.quick {
		n = 12
	}
	return newMemCase(memField{f3: gen3D(m.cfg.seed, n, n, n, datagen.Nek5000)}, core.ST4)
}

func setupHurricane(m *meter) (batchCase, error) {
	nx, ny, nz := 64, 64, 96
	if m.cfg.quick {
		nx, ny, nz = 16, 16, 24
	}
	f := gen3D(m.cfg.seed, nx, ny, nz, datagen.Hurricane)
	return newStreamCase(filepath.Join(m.cfg.workDir, "hurricane3d-stream"), f)
}
