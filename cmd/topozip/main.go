// Command topozip is the command-line front end of the critical-point-
// preserving compressor: it compresses and decompresses raw float32
// vector fields (components stored one after another, little endian),
// verifies topology preservation, and generates the synthetic evaluation
// datasets.
//
// Usage:
//
//	topozip gen        -data ocean|hurricane|nek5000|turbulence -dims 384x288 -out field.f32
//	topozip compress   -in field.f32 -dims 384x288 -tau 0.01 -spec ST4 -out field.szp
//	topozip compress   -in field.f32 -dims 384x288 -workers 8 -out field.szp
//	topozip compress   -in big.f32 -dims 2048x2048x512 -max-mem 256MiB -out big.szp
//	topozip decompress -in field.szp -out restored.f32
//	topozip decompress -in big.szp -max-mem 256MiB -out restored.f32
//	topozip verify     -orig field.f32 -comp field.szp
//	topozip verify     -orig big.f32 -comp big.szp -max-mem 256MiB
//	topozip info       -in field.szp
//
// -dims takes NXxNY (2D, two components) or NXxNYxNZ (3D, three
// components). -tau is relative to the value range by default; pass
// -abs to interpret it as an absolute bound.
//
// Every compress runs the codec's slab pipeline (the same call path as
// topozipd, with the same bytes) and writes a version-3 archive
// container; decompress and verify decode through the same codec. A
// field below 128 Ki vertices is one slab, whose container holds exactly
// the single-node block; a larger one, or -slabs, splits the field along
// its slow axis into slabs that compress concurrently and meet at
// two-phase seams, keeping the single-block ratio. The output bytes
// depend only on the slab count, never on -workers.
// decompress/verify/info also read bare blocks and older containers.
//
// -max-mem <bytes, e.g. 64M, 1GiB> bounds peak memory: compress pulls
// slabs from the raw file through a bounded admission window straight
// into the output container, decompress and verify stream slabs back
// out one window at a time, and the budget sizes the slab count and
// window automatically — peak memory stays near the budget no matter
// how large the field is. Output bytes depend on the budget (it picks
// the slab count) but never on -workers.
package main

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exact/filter"
	"repro/internal/faultinject"
	"repro/internal/field"
	"repro/internal/flightrec"
	"repro/internal/integrity"
	"repro/internal/obs"
	"repro/internal/safedim"
	"repro/internal/shm"
	"repro/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "compress":
		err = cmdCompress(os.Args[2:])
	case "decompress":
		err = cmdDecompress(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "pack-series":
		err = cmdPackSeries(os.Args[2:])
	case "track":
		err = cmdTrack(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		// Checksum failures get their own diagnosis line: the input is
		// damaged data, not a usage or format mistake.
		var ie *integrity.IntegrityError
		if errors.As(err, &ie) {
			fmt.Fprintln(os.Stderr, "topozip: input failed its integrity check; the file is corrupt")
		}
		fmt.Fprintln(os.Stderr, "topozip:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: topozip <gen|compress|decompress|verify|info|pack-series|track> [flags]
run "topozip <cmd> -h" for command flags`)
}

// parseMemBudget parses a -max-mem byte budget: a plain byte count or a
// value with a K/M/G (binary), KiB/MiB/GiB, or KB/MB/GB (decimal)
// suffix. Empty means no budget.
func parseMemBudget(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	u := strings.ToUpper(s)
	mult := int64(1)
	for _, suf := range []struct {
		s string
		m int64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30},
		{"KB", 1000}, {"MB", 1000 * 1000}, {"GB", 1000 * 1000 * 1000},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30},
		{"B", 1},
	} {
		if strings.HasSuffix(u, suf.s) {
			mult = suf.m
			u = strings.TrimSuffix(u, suf.s)
			break
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(u), 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("bad -max-mem value %q", s)
	}
	return int64(v * float64(mult)), nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	data := fs.String("data", "ocean", "dataset: ocean, hurricane, nek5000, turbulence")
	dimsFlag := fs.String("dims", "384x288", "grid dimensions")
	out := fs.String("out", "", "output raw float32 file")
	seed := fs.Int64("seed", 0, "realization seed (turbulence)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	dims, err := codec.ParseDims(*dimsFlag)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	switch *data {
	case "ocean":
		if len(dims) != 2 {
			return fmt.Errorf("ocean is 2D")
		}
		fl := datagen.Ocean(dims[0], dims[1])
		return field.WriteRaw(f, fl.U, fl.V)
	case "hurricane":
		if len(dims) != 3 {
			return fmt.Errorf("hurricane is 3D")
		}
		fl := datagen.Hurricane(dims[0], dims[1], dims[2])
		return field.WriteRaw(f, fl.U, fl.V, fl.W)
	case "nek5000":
		if len(dims) != 3 {
			return fmt.Errorf("nek5000 is 3D")
		}
		fl := datagen.Nek5000(dims[0], dims[1], dims[2])
		return field.WriteRaw(f, fl.U, fl.V, fl.W)
	case "turbulence":
		if len(dims) != 3 {
			return fmt.Errorf("turbulence is 3D")
		}
		fl := datagen.Turbulence(dims[0], dims[1], dims[2], *seed)
		return field.WriteRaw(f, fl.U, fl.V, fl.W)
	default:
		return fmt.Errorf("unknown dataset %q", *data)
	}
}

// loadRaw reads a raw float32 file holding one component per dimension
// of dims, stored one after another.
func loadRaw(path string, dims []int) ([][]float32, error) {
	r, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	comps := make([][]float32, len(dims))
	for c := range comps {
		comps[c] = make([]float32, safedim.MustProduct(dims...))
	}
	if err := field.ReadRaw(r, comps...); err != nil {
		return nil, err
	}
	return comps, nil
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	in := fs.String("in", "", "input raw float32 file")
	dimsFlag := fs.String("dims", "", "grid dimensions NXxNY[xNZ]")
	out := fs.String("out", "", "output compressed file")
	tau := fs.Float64("tau", 0.01, "error bound")
	abs := fs.Bool("abs", false, "interpret -tau as an absolute bound (default: relative to value range)")
	specFlag := fs.String("spec", "NoSpec", "speculation target: NoSpec, ST1..ST4")
	workers := fs.Int("workers", 0, "slab-pipeline workers (0 or -1 = all cores); never changes the output bytes")
	slabs := fs.Int("slabs", 0, "slab count (0 = derived from -max-mem when set, else from the field shape)")
	maxMem := fs.String("max-mem", "", "peak-memory budget, e.g. 256MiB; sizes slabs and the admission window automatically")
	metrics := fs.String("metrics", "", "write telemetry (span tree + counters) as JSON to this file")
	traceOut := fs.String("trace", "", "write the span forest as Chrome trace-event JSON (Perfetto-loadable) to this file")
	listen := fs.String("listen", "", "serve /metrics, /healthz, /debug/{trace,flightrec,vars,pprof} on this address for the duration of the run (e.g. 127.0.0.1:6060)")
	flightrecOut := fs.String("flightrec", "", "flight-recorder dump path (default <out>.flightrec.json); written automatically on an error or degraded run")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the compression to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile taken after compression to this file")
	faults := fs.String("faults", "", "fault-injection spec, e.g. seed=7,panic=0.2,bitflip=0.01 (default: $"+faultinject.EnvVar+")")
	fs.Parse(args)
	if *in == "" || *out == "" || *dimsFlag == "" {
		return fmt.Errorf("-in, -dims and -out are required")
	}
	inj, err := faultinject.Parse(*faults)
	if err != nil {
		return err
	}
	if *faults == "" {
		inj = faultinject.FromEnv(os.LookupEnv)
	}
	dims, err := codec.ParseDims(*dimsFlag)
	if err != nil {
		return err
	}
	spec, err := codec.ParseSpec(*specFlag)
	if err != nil {
		return err
	}
	budget, err := parseMemBudget(*maxMem)
	if err != nil {
		return err
	}
	predBefore := filter.Stats()
	var tel *telemetry.Collector
	if *metrics != "" || *traceOut != "" || *listen != "" {
		tel = telemetry.New()
	}
	// The flight recorder rides along whenever something can go wrong
	// (fault injection) or the operator asked for it; it stays nil — and
	// free — on plain runs.
	var rec *flightrec.Recorder
	if inj != nil || *flightrecOut != "" || *listen != "" {
		rec = flightrec.New(0)
		dumpPath := *flightrecOut
		if dumpPath == "" {
			dumpPath = *out + ".flightrec.json"
		}
		rec.SetDumpPath(dumpPath)
		inj.SetRecorder(rec)
	}
	if *listen != "" {
		srv, err := obs.Serve(*listen, tel, rec)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("debug endpoint on http://%s\n", srv.Addr())
	}
	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	po := shm.Options{Workers: *workers, Slabs: *slabs, MaxMemBytes: budget, Tel: tel, Rec: rec, Faults: inj}
	res, err := compressFile(*in, *out, codec.Params{Dims: dims, Tau: *tau, TauAbsolute: *abs, Spec: *specFlag, Pipeline: po})
	// The postmortem contract: any failed or degraded run dumps the
	// flight-recorder ring before the error surfaces.
	dumpedTo := ""
	if p, derr := rec.DumpOnOutcome(err, len(res.Degraded) > 0); derr != nil {
		fmt.Fprintln(os.Stderr, "topozip: flight recorder dump failed:", derr)
	} else if p != "" {
		dumpedTo = p
		fmt.Fprintln(os.Stderr, "flight recorder dumped to", p)
	}
	if err != nil {
		return err
	}
	// Throughput is the real wall clock of this run — the pool's own
	// timer, never the simulated machine's virtual makespan.
	mbps := res.ThroughputMBps()
	fmt.Printf("compressed %d -> %d bytes (ratio %.2f, %s, %.2f MB/s wall)\n",
		res.RawBytes, res.CompressedBytes, res.Ratio(), spec, mbps)
	fmt.Printf("shm pipeline: %d slabs on %d workers\n", res.Slabs, res.Workers)
	if res.Window > 0 && res.Window < res.Slabs {
		fmt.Printf("out-of-core window: %d of %d slabs, peak %d bytes admitted\n",
			res.Window, res.Slabs, res.PeakWindowBytes)
	}
	if inj != nil {
		fmt.Printf("fault injection: fired %v\n", inj.Report())
		if rep := res.DegradationReport(); rep != "" {
			fmt.Println(rep)
		}
	}
	st := res.Stats
	fmt.Printf("vertices %d: %d lossless, %d relaxed, %d literal escapes; speculation %d trials / %d fails / %d cutoffs\n",
		st.Vertices, st.Lossless, st.Relaxed, st.Literals, st.SpecTrials, st.SpecFails, st.SpecCutoffs)
	pred := filter.Stats().Sub(predBefore)
	if pred.Orient3Calls()+pred.Orient2Fast+pred.Orient2Wide+pred.PsiCert+pred.PsiFallback > 0 {
		fmt.Printf("predicate filter: 3D %.1f%% certified (%d exact fallbacks of %d), Ψ %.1f%% certified (%d of %d)\n",
			100*pred.Orient3AcceptRate(), pred.Orient3Exact, pred.Orient3Calls(),
			100*pred.PsiCertRate(), pred.PsiCert, pred.PsiCert+pred.PsiFallback)
	}
	if tel != nil {
		tel.Gauge("cli.compress.throughput_mbps").Set(int64(mbps))
		for name, v := range pred.Map() {
			tel.Counter(name).Add(int64(v))
		}
	}
	if *metrics != "" {
		mf, err := os.Create(*metrics)
		if err != nil {
			return err
		}
		defer mf.Close()
		if err := tel.WriteJSON(mf); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer tf.Close()
		if err := tel.WriteChromeTrace(tf); err != nil {
			return err
		}
	}
	if err := writeCompressManifest(args, *in, *out, dims, *tau, *abs, spec, res, pred, tel, dumpedTo); err != nil {
		return err
	}
	if *memprofile != "" {
		pf, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer pf.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(pf); err != nil {
			return err
		}
	}
	return nil
}

// compressFile runs the registered codec over the raw file in, streaming
// the container into out: the stats pass and the slab pipeline read
// planes through the file, so the field is never resident as a whole.
func compressFile(in, out string, p codec.Params) (codec.Result, error) {
	cdc, err := codec.Lookup(codec.FormatCP, 0)
	if err != nil {
		return codec.Result{}, err
	}
	inF, err := os.Open(in)
	if err != nil {
		return codec.Result{}, err
	}
	defer inF.Close()
	src, err := field.NewRawSource(inF, p.Dims...)
	if err != nil {
		return codec.Result{}, err
	}
	outF, err := os.Create(out)
	if err != nil {
		return codec.Result{}, err
	}
	res, err := cdc.Compress(src, outF, p)
	if cerr := outF.Close(); err == nil {
		err = cerr
	}
	return res, err
}

// writeCompressManifest records the run's provenance beside the archive:
// topozip info and verify render it, and verify writes its fidelity
// result back into it. The input hash streams through the file so the
// manifest pass obeys the same memory contract as the compressor.
func writeCompressManifest(args []string, in, out string, dims []int,
	tauIn float64, abs bool, spec core.Speculation, res codec.Result,
	pred filter.Snapshot, tel *telemetry.Collector, flightDump string) error {

	man := telemetry.NewManifest("topozip")
	man.Command = "compress " + strings.Join(args, " ")
	h := sha256.New()
	inF, err := os.Open(in)
	if err != nil {
		return err
	}
	rawN, err := io.Copy(h, inF)
	inF.Close()
	if err != nil {
		return err
	}
	man.Dataset = telemetry.ManifestDataset{
		Dims: dims, Components: len(dims), RawBytes: rawN,
		SHA256: fmt.Sprintf("%x", h.Sum(nil)),
	}
	man.Codec = telemetry.ManifestCodec{
		Name: "topozip-cp", FormatVersion: core.FormatVersion,
		Spec: spec.String(), Tau: res.TauAbs,
	}
	if !abs {
		man.Codec.TauRelative = tauIn
	}
	man.Run = telemetry.ManifestRun{
		WallNS: res.Wall.Nanoseconds(), ThroughputMBps: res.ThroughputMBps(),
		CompressedBytes: res.CompressedBytes,
		Ratio:           float64(rawN) / float64(res.CompressedBytes),
		FlightRecorder:  flightDump,
		Slabs:           res.Slabs,
		Workers:         res.Workers,
		Window:          res.Window,
		PeakWindowBytes: res.PeakWindowBytes,
		Panics:          res.Panics,
		DegradedSlabs:   res.Degraded,
		Degradation:     res.DegradationReport(),
	}
	st := res.Stats
	man.Bounds = telemetry.ManifestBounds{
		Vertices: int64(st.Vertices), Lossless: int64(st.Lossless),
		Relaxed: int64(st.Relaxed), Literals: int64(st.Literals),
		SpecTrials: int64(st.SpecTrials), SpecFails: int64(st.SpecFails),
		SpecCutoffs: int64(st.SpecCutoffs),
	}
	man.Predicates = &telemetry.ManifestPredicates{
		Orient2Fast: pred.Orient2Fast, Orient2Zero: pred.Orient2Zero,
		Orient2Wide:   pred.Orient2Wide,
		Orient3Static: pred.Orient3Static, Orient3Run: pred.Orient3Run,
		Orient3Zero: pred.Orient3Zero, Orient3Exact: pred.Orient3Exact,
		Orient3Wide: pred.Orient3Wide,
		PsiCert:     pred.PsiCert, PsiFallback: pred.PsiFallback,
		Orient3AcceptRate: pred.Orient3AcceptRate(),
		PsiCertRate:       pred.PsiCertRate(),
	}
	if tel != nil {
		snap := tel.Snapshot()
		if h, ok := snap.Histograms[fmt.Sprintf("core.%dd.bound_exp_sym", len(dims))]; ok {
			man.Bounds.BoundExp = &h
		}
		man.Metrics = &snap
	}
	return man.WriteFile(telemetry.ManifestPath(out))
}

// decompressFile decodes the container (or bare block) in path through
// the registered codec into the sink sinkFor builds once the stored dims
// are known. It returns those dims and the container's size in bytes.
func decompressFile(path string, po shm.Options, sinkFor func(dims []int) (shm.PlaneSink, error)) ([]int, int64, error) {
	cdc, err := codec.Lookup(codec.FormatCP, 0)
	if err != nil {
		return nil, 0, err
	}
	f, size, err := openSized(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	dims, err := cdc.Decompress(f, size, codec.Params{Pipeline: po}, sinkFor)
	return dims, size, err
}

// openSized opens a file for random access and reports its size.
func openSized(path string) (*os.File, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// shape renders dims as "2D field NXxNY" or "3D field NXxNYxNZ".
func shape(dims []int) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = strconv.Itoa(d)
	}
	return fmt.Sprintf("%dD field %s", len(dims), strings.Join(parts, "x"))
}

// rawSize is the byte size of the raw float32 file holding dims.
func rawSize(dims []int) int64 {
	n := int64(len(dims)) * 4
	for _, d := range dims {
		n *= int64(d)
	}
	return n
}

func cmdDecompress(args []string) error {
	fs := flag.NewFlagSet("decompress", flag.ExitOnError)
	in := fs.String("in", "", "input compressed file")
	out := fs.String("out", "", "output raw float32 file")
	workers := fs.Int("workers", 0, "decode workers (0 = all cores)")
	maxMem := fs.String("max-mem", "", "peak-memory budget for the decode, e.g. 256MiB")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("-in and -out are required")
	}
	budget, err := parseMemBudget(*maxMem)
	if err != nil {
		return err
	}
	// Decoded slabs land straight in their place in the output file,
	// created only once the input's block headers have planned the
	// decode, so an unreadable input leaves no empty output behind.
	var outF *os.File
	dims, _, err := decompressFile(*in, shm.Options{Workers: *workers, MaxMemBytes: budget},
		func(dims []int) (shm.PlaneSink, error) {
			f, err := os.Create(*out)
			if err != nil {
				return nil, err
			}
			outF = f
			return field.NewRawSink(f, dims...)
		})
	if outF != nil {
		if cerr := outF.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("decompressed %s\n", shape(dims))
	return nil
}

// cmdVerify decodes the container and compares it with the original as
// plane sources: critical-point detection and error metrics run over
// windows of the budget's size, or over the whole field without one.
// With a budget the decoded field goes to a scratch raw file beside the
// container, so verify never holds either field in memory.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	orig := fs.String("orig", "", "original raw float32 file")
	comp := fs.String("comp", "", "compressed file")
	maxMem := fs.String("max-mem", "", "peak-memory budget for the verify, e.g. 256MiB")
	fs.Parse(args)
	if *orig == "" || *comp == "" {
		return fmt.Errorf("-orig and -comp are required")
	}
	budget, err := parseMemBudget(*maxMem)
	if err != nil {
		return err
	}
	var decSrc field.SlabSource
	sinkFor := func(dims []int) (shm.PlaneSink, error) {
		m := field.NewMem(dims)
		decSrc = m
		return m, nil
	}
	if budget > 0 {
		tmp, err := os.CreateTemp(filepath.Dir(*comp), ".topozip-verify-*.raw")
		if err != nil {
			return err
		}
		defer os.Remove(tmp.Name())
		defer tmp.Close()
		sinkFor = func(dims []int) (shm.PlaneSink, error) {
			src, err := field.NewRawSource(tmp, dims...)
			if err != nil {
				return nil, err
			}
			decSrc = src
			return field.NewRawSink(tmp, dims...)
		}
	}
	dims, compBytes, err := decompressFile(*comp, shm.Options{MaxMemBytes: budget}, sinkFor)
	if err != nil {
		return err
	}
	origF, err := os.Open(*orig)
	if err != nil {
		return err
	}
	defer origF.Close()
	origSrc, err := field.NewRawSource(origF, dims...)
	if err != nil {
		return err
	}
	window, detWindow := dims[len(dims)-1], dims[len(dims)-1]
	if budget > 0 {
		window = codec.StatsWindow(budget, dims)
		// Detection holds fixed-point copies alongside the planes, so its
		// window runs a third of the scan window.
		detWindow = window / 3
	}
	fid, err := analysis.Verify(origSrc, decSrc, window, detWindow)
	if err != nil {
		return err
	}
	return reportVerify(*comp, fid, rawSize(dims), compBytes)
}

// reportVerify renders the verify outcome: human lines, manifest
// write-back, machine-readable summary.
func reportVerify(comp string, fid analysis.Fidelity, rawBytes, compBytes int64) error {
	rep, maxErr, psnr := fid.Report, fid.MaxAbsError, fid.PSNR
	fmt.Printf("critical points: %v\n", rep)
	fmt.Printf("max abs error: %.6g  PSNR: %.2f dB\n", maxErr, psnr)
	sum := verifySummary{
		TP: rep.TP, FP: rep.FP, FN: rep.FN, FT: rep.FT,
		Ratio:       float64(rawBytes) / float64(compBytes),
		MaxAbsError: maxErr,
		PSNRdB:      psnr,
		Preserved:   rep.Preserved(),
	}
	// When the archive travels with its manifest, render it, surface the
	// compressor's bound-exponent quantiles in the summary line, and write
	// the fidelity verdict back so the manifest carries the full story.
	if man, merr := telemetry.ReadManifest(telemetry.ManifestPath(comp)); merr == nil {
		if h := man.Bounds.BoundExp; h != nil && h.Count > 0 {
			sum.BoundExpP50, sum.BoundExpP90, sum.BoundExpP99 = h.P50, h.P90, h.P99
		}
		man.Fidelity = &telemetry.ManifestFidelity{
			TP: rep.TP, FP: rep.FP, FN: rep.FN, FT: rep.FT,
			MaxAbsError: maxErr, PSNRdB: psnr, Preserved: rep.Preserved(),
			VerifiedUnixNS: time.Now().UnixNano(),
		}
		if werr := man.WriteFile(telemetry.ManifestPath(comp)); werr != nil {
			return werr
		}
		if rerr := man.Render(os.Stdout); rerr != nil {
			return rerr
		}
	}
	// Machine-readable one-line summary (deterministic field order).
	if err := telemetry.EncodeJSONLine(os.Stdout, sum); err != nil {
		return err
	}
	if !rep.Preserved() {
		return fmt.Errorf("critical points NOT preserved")
	}
	fmt.Println("all critical points preserved")
	return nil
}

// verifySummary is the machine-readable verify result; encoded with the
// telemetry JSON writer so the field order is deterministic.
type verifySummary struct {
	TP          int     `json:"tp"`
	FP          int     `json:"fp"`
	FN          int     `json:"fn"`
	FT          int     `json:"ft"`
	Ratio       float64 `json:"ratio"`
	MaxAbsError float64 `json:"max_abs_error"`
	PSNRdB      float64 `json:"psnr_db"`
	Preserved   bool    `json:"preserved"`
	// Bound-exponent quantiles from the archive's manifest (how tight the
	// stored bounds ran); present only when the compressing run collected
	// telemetry.
	BoundExpP50 int64 `json:"bound_exp_p50,omitempty"`
	BoundExpP90 int64 `json:"bound_exp_p90,omitempty"`
	BoundExpP99 int64 `json:"bound_exp_p99,omitempty"`
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "", "compressed file")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	f, size, err := openSized(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	sr, err := archive.OpenStream(f, size)
	if err != nil {
		return err
	}
	// Header peeks only: no slab is decoded to report the shape.
	dims, err := shm.ContainerDims(sr)
	kind, fields := fmt.Sprintf("shm container: %d slabs,", sr.Steps()), int64(1)
	if errors.Is(err, shm.ErrNotSlabs) {
		// A time series: every step has step 0's shape.
		kind, fields = fmt.Sprintf("series: %d steps,", sr.Steps()), int64(sr.Steps())
		dims, err = stepDims(sr)
	}
	if err != nil {
		return err
	}
	if sr.Version() == 0 {
		kind = "bare block,"
	}
	fmt.Printf("%s %s, %d compressed bytes (%.2fx vs raw)\n",
		kind, shape(dims), size, float64(fields*rawSize(dims))/float64(size))
	return renderManifestIfPresent(*in)
}

// stepDims returns the dims in the header of a container's step 0.
func stepDims(sr *archive.StreamReader) ([]int, error) {
	blob, err := sr.ReadBlobInto(nil, 0)
	if err != nil {
		return nil, err
	}
	h, err := core.PeekBlock(blob)
	return h.Dims, err
}

// renderManifestIfPresent prints the run manifest an archive travels
// with; a missing manifest is not an error (the file may predate them or
// have been moved alone), but a malformed one is.
func renderManifestIfPresent(archivePath string) error {
	path := telemetry.ManifestPath(archivePath)
	if _, err := os.Stat(path); err != nil {
		return nil
	}
	man, err := telemetry.ReadManifest(path)
	if err != nil {
		return err
	}
	return man.Render(os.Stdout)
}
