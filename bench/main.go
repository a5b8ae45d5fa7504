// Command bench is the repository benchmark. It runs four workloads that
// together exercise every layer of the compressor — the in-memory kernel,
// the streaming slab pipeline with file I/O, and the network daemon —
// checks the output of every operation, and prints every metric by name
// with its unit. BENCHMARK.json at the repository root lists the
// workloads and metrics with their directions and regression bounds.
//
// Build and run from the repository root (the benchmark is a module of
// its own, so run.sh builds it):
//
//	sh bench/run.sh                                  # all workloads, one child process each
//	sh bench/run.sh -workload nek3d-st4 -seed 3      # one workload; last line is the result JSON
//	sh bench/run.sh -workload nek3d-st4 -trace 1     # traced run: per-layer metrics and a trace file
//	sh bench/run.sh -seed 4 -out bench/results/x.json   # append the run to a report file
//	sh bench/run.sh compare A.json -- B.json         # compare two sets of runs
//
// See bench/README.md for why each workload exists and how each layer
// metric maps onto the end-to-end metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one run's settings.
type config struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	quick    bool   // tiny grids, for the test suite
	workDir  string // scratch files live in a fresh directory under it
	traceDir string // traced runs write trace-<workload>.json here; "" skips
	corrupt  bool   // test hook: damage the first compressed output
}

// meter carries a run's configuration and counts its operations.
type meter struct {
	cfg       config
	dir       string // this run's scratch directory
	log       io.Writer
	lay       *layers // non-nil in the traced run
	attempted int
	failed    int
	calib     []float64 // reference loop times, seconds (calib.go)
}

// check counts one operation and whether it failed.
func (m *meter) check(op string, err error) bool {
	m.attempted++
	if err == nil {
		return true
	}
	m.failed++
	if m.failed <= 10 {
		m.logf("FAIL %s: %v", op, err)
	}
	return false
}

func (m *meter) logf(format string, args ...any) {
	fmt.Fprintf(m.log, "  "+format+"\n", args...)
}

// series logs a latency series with its sample count, trimmed mean and
// quartiles, in wall-clock time.
func (m *meter) series(name string, secs []float64) {
	q1, q3 := quartiles(secs)
	m.logf("%-10s n=%-4d mean %.2fms  median %.2fms  Q1 %.2fms  Q3 %.2fms  p99 %.2fms", name, len(secs),
		1e3*trimmedMean(secs), 1e3*median(secs), 1e3*q1, 1e3*q3, 1e3*quantile(secs, 0.99))
}

// instance is a workload after set-up, ready for its timed phase.
type instance interface {
	measure(m *meter) (map[string]float64, error)
	close() error
}

// batch adapts a batchCase to instance, with the shape of its reps.
type batch struct {
	batchCase
	shape repShape
}

func (b batch) measure(m *meter) (map[string]float64, error) {
	return measureBatch(b.batchCase, b.shape, m)
}

func batchSetup(setup func(*meter) (batchCase, error), shape repShape) func(*meter) (instance, error) {
	return func(m *meter) (instance, error) {
		bc, err := setup(m)
		if err != nil {
			return nil, err
		}
		return batch{bc, shape}, nil
	}
}

type workload struct {
	name  string
	setup func(*meter) (instance, error)
}

// workloads run in this order; README.md records why each exists. A
// batch workload's rep shape gives its short operations more calls, and
// so more samples, per rep (batch.go, repShape).
var workloads = []workload{
	{"ocean2d-nospec", batchSetup(setupOcean, repShape{decompresses: 4, verifies: 1})},
	{"nek3d-st4", batchSetup(setupNek, repShape{decompresses: 4, verifies: 3})},
	{"hurricane3d-stream", batchSetup(setupHurricane, repShape{decompresses: 3, verifies: 2})},
	{"topozipd-mix", setupService},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// A run sets its workload up at least setupReps times and until
// setupMin has passed; setup_s is the trimmed mean, so a set-up of a few
// tens of milliseconds gets enough samples to ride out the host's swings.
const (
	setupReps = 3
	setupMin  = time.Second
)

// runWorkload sets the workload up, runs its timed phase, and assembles
// the result: the end-to-end metrics, or in a traced run the per-layer
// metrics.
func runWorkload(name string, cfg config, log io.Writer) (Result, error) {
	w, err := lookupWorkload(name)
	if err != nil {
		return Result{}, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return Result{}, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, name+"-")
	if err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(dir)
	m := &meter{cfg: cfg, dir: dir, log: log}
	if cfg.trace {
		m.lay = newLayers()
	}
	var inst instance
	var setups []float64
	floor := setupMin
	if cfg.quick {
		floor = 0
	}
	for start := time.Now(); len(setups) < setupReps || time.Since(start) < floor; {
		if inst != nil {
			if err := inst.close(); err != nil {
				return Result{}, err
			}
		}
		m.sampleHost()
		t0 := time.Now()
		if inst, err = w.setup(m); err != nil {
			return Result{}, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	m.series("setup", setups)
	vals, err := inst.measure(m)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", name, err)
	}
	vals["setup_s"] = trimmedMean(setups)
	vals["peak_rss_mb"] = peakRSSMB()
	host := m.hostFactor()
	m.logf("host: reference loop mean %.2fms over %d samples (%v at reference speed), factor %.3f",
		1e3*trimmedMean(m.calib), len(m.calib), refTime, host)
	for _, d := range endToEnd {
		if d.hostScaled == 0 {
			continue
		}
		m.logf("  wall %-15s %12.4f %s", d.name, vals[d.name], d.unit)
		if d.hostScaled > 0 {
			vals[d.name] *= host
		} else {
			vals[d.name] /= host
		}
	}

	defs := endToEnd
	if cfg.trace {
		m.lay.add("bench.host_calib_ms", 1e3*trimmedMean(m.calib))
		defs, vals = perLayer, m.lay.values()
		if cfg.traceDir != "" {
			if err := m.lay.writeTrace(filepath.Join(cfg.traceDir, "trace-"+name+".json")); err != nil {
				return Result{}, err
			}
		}
	}
	res := Result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]Metric{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return Result{}, fmt.Errorf("%s: metric %s not measured (%v)", name, d.name, v)
		}
		res.Metrics[d.name] = Metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// printMetrics writes one line per metric, in definition order.
func printMetrics(w io.Writer, res Result, trace bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		if mt, ok := res.Metrics[d.name]; ok {
			fmt.Fprintf(w, "  %-28s %14.4f %s\n", d.name, mt.Value, mt.Unit)
		}
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}

// Run is one full or single-workload run in a report file.
type Run struct {
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Workloads map[string]Result `json:"workloads"`
}

// Report is a set of runs, the input of compare.
type Report struct {
	Runs []Run `json:"runs"`
}

func readReport(path string) (Report, error) {
	var rep Report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// appendRun adds run to the report at path, creating it if needed.
func appendRun(path string, run Run) error {
	rep, err := readReport(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	rep.Runs = append(rep.Runs, run)
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runChild runs one workload in a fresh child process, so peak RSS and GC
// state belong to that workload alone, and parses its result line.
func runChild(name string, cfg config) (Result, error) {
	exe, err := os.Executable()
	if err != nil {
		return Result{}, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds.Seconds(), 'g', -1, 64),
		"-trace", trace, "-workdir", cfg.workDir, "-tracedir", cfg.traceDir}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res Result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return Result{}, fmt.Errorf("%s: %w", name, runErr)
		}
		return Result{}, fmt.Errorf("%s: result line: %w", name, err)
	}
	return res, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout))
	}
	var cfg config
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "run only this workload, in this process (default: all, one child process each)")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed: picks each input's crop origin and the daemon's arrival schedule")
	secs := fs.Float64("seconds", 20, "length of each workload's timed phase")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and bench/results trace files")
	fs.StringVar(&cfg.workDir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory")
	fs.StringVar(&cfg.traceDir, "tracedir", filepath.Join("bench", "results"), "where traced runs write trace-<workload>.json")
	out := fs.String("out", "", "append this run to a report file (the input of compare)")
	fs.Parse(os.Args[1:])
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *secs <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		os.Exit(2)
	}
	cfg.trace = *trace == 1
	cfg.seconds = time.Duration(*secs * float64(time.Second))

	run := Run{Seed: cfg.seed, Seconds: *secs, Trace: cfg.trace, Workloads: map[string]Result{}}
	correct := true
	if *name != "" {
		fmt.Printf("%s (seed %d, %gs, trace %v)\n", *name, cfg.seed, *secs, cfg.trace)
		res, err := runWorkload(*name, cfg, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		printMetrics(os.Stdout, res, cfg.trace)
		run.Workloads[*name] = res
		correct = res.Correct
	} else {
		for _, w := range workloads {
			res, err := runChild(w.name, cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			run.Workloads[w.name] = res
			correct = correct && res.Correct
		}
	}
	if *out != "" {
		if err := appendRun(*out, run); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	var last any = run
	if *name != "" {
		last = run.Workloads[*name]
	}
	b, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !correct {
		os.Exit(1)
	}
}
