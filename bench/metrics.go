package main

import (
	"math"
	"sort"
)

// Metric is one named measurement on a result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one workload run reports: the line printed last on
// standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// metricDef names a metric and its unit. Direction and regression bound
// live in BENCHMARK.json, which bench_test.go holds equal to these lists.
// hostScaled marks a rate (+1) or a duration (−1) that is reported at
// the reference host speed (calib.go).
type metricDef struct {
	name, unit string
	hostScaled int
}

// endToEnd are the metrics a user of each workload sees, reported by the
// untraced run (-trace 0). Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", -1},
	{"compress_mbps", "MB/s", +1},
	{"decompress_mbps", "MB/s", +1},
	{"verify_mbps", "MB/s", +1},
	{"ratio", "x", 0},
	{"peak_rss_mb", "MB", 0},
	{"req_p50_ms", "ms", -1},
	{"capacity_rps", "req/s", +1},
}

// perLayer are the traced run's (-trace 1) numbers, one group per
// package the benchmark calls into. Times are wall milliseconds per
// operation on the workload's whole input, not host-scaled; a layer a
// workload bypasses reads 0.
var perLayer = []metricDef{
	{"core.fixed_convert_ms", "ms", 0},
	{"core.cp_precompute_ms", "ms", 0},
	{"core.process_ms", "ms", 0},
	{"core.derive_ms", "ms", 0},
	{"core.entropy_code_ms", "ms", 0},
	{"core.unattributed_ms", "ms", 0},
	{"core.attributed_frac", "frac", 0},
	{"core.vertices", "count", 0},
	{"core.lossless_frac", "frac", 0},
	{"core.relaxed_frac", "frac", 0},
	{"core.spec_trials", "count", 0},
	{"core.spec_accept_frac", "frac", 0},
	{"core.spec_cutoffs", "count", 0},
	{"core.literal_escapes", "count", 0},
	{"core.bound_exp_p50", "sym", 0},
	{"core.decompress_ms", "ms", 0},
	{"core.reconstruct_ms", "ms", 0},
	{"huffman.decode_ms", "ms", 0},
	{"huffman.encode_ms", "ms", 0},
	{"huffman.syms", "count", 0},
	{"huffman.bits_per_sym", "bit", 0},
	{"encoder.unpack_ms", "ms", 0},
	{"encoder.pack_ms", "ms", 0},
	{"encoder.deflate_gain", "x", 0},
	{"integrity.checksum_ms", "ms", 0},
	{"cp.detect_ms", "ms", 0},
	{"cp.mcells_per_s", "Mcell/s", 0},
	{"cp.points", "count", 0},
	{"fixed.to_fixed_ms", "ms", 0},
	{"shm.compress_ms", "ms", 0},
	{"shm.decompress_ms", "ms", 0},
	{"shm.slabs", "count", 0},
	{"shm.window", "count", 0},
	{"shm.peak_window_mb", "MB", 0},
	{"shm.lossless_frac", "frac", 0},
	{"shm.retries", "count", 0},
	{"shm.worker_busy_frac", "frac", 0},
	{"shm.slab_p50_ms", "ms", 0},
	{"shm.slab_max_ms", "ms", 0},
	{"field.read_ms", "ms", 0},
	{"field.read_mb", "MB", 0},
	{"field.write_ms", "ms", 0},
	{"field.write_mb", "MB", 0},
	{"archive.open_ms", "ms", 0},
	{"archive.read_blob_ms", "ms", 0},
	{"archive.steps", "count", 0},
	{"codec.compress_ms", "ms", 0},
	{"codec.decompress_ms", "ms", 0},
	{"server.compress_p50_ms", "ms", 0},
	{"server.decompress_p50_ms", "ms", 0},
	{"server.verify_p50_ms", "ms", 0},
	{"server.open_p50_ms", "ms", 0},
	{"server.open_p90_ms", "ms", 0},
	{"server.req_p90_ms", "ms", 0},
	{"server.handler_p50_ms", "ms", 0},
	{"server.overhead_ms", "ms", 0},
	{"server.shed", "count", 0},
	{"server.errors", "count", 0},
	{"server.gen_lag_p99_ms", "ms", 0},
	{"bench.trace_overhead_frac", "frac", 0},
	{"bench.host_calib_ms", "ms", 0},
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// trimmedMean is the mean of xs without its lowest and highest tenth; 0
// for an empty slice. xs is not modified.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 10
	s = s[k : len(s)-k]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(xs,
// n=4) computes them (the "exclusive" method), so spreads printed here
// match the ones the benchmark's acceptance check computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := len(s) + 1
	at := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
