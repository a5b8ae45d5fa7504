package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSpecMatchesCode validates BENCHMARK.json and holds its workload and
// metric lists equal, in order and unit, to the ones the code emits.
func TestSpecMatchesCode(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		spec []SpecMetric
		code []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", c.kind, len(c.spec), len(c.code))
			continue
		}
		for i, m := range c.spec {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", c.kind, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

// TestSpecRejectsMalformed checks the validator on broken definitions.
func TestSpecRejectsMalformed(t *testing.T) {
	good, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	big := 0.3
	for name, mutate := range map[string]func(*Spec){
		"bad metric name": func(s *Spec) { s.PerLayer[0].Name = "core fixed" },
		"duplicate name":  func(s *Spec) { s.PerLayer[1].Name = s.PerLayer[0].Name },
		"one workload":    func(s *Spec) { s.Workloads = s.Workloads[:1] },
		"nine workloads": func(s *Spec) {
			s.Workloads = append(s.Workloads, s.Workloads...)
			s.Workloads = append(s.Workloads, s.Workloads[0])
		},
		"too many e2e":      func(s *Spec) { s.EndToEnd = append(s.EndToEnd, make([]SpecMetric, 17)...) },
		"too many layers":   func(s *Spec) { s.PerLayer = append(s.PerLayer, make([]SpecMetric, 129)...) },
		"bound above 0.25":  func(s *Spec) { s.EndToEnd[1].Bound = &big },
		"no setup_s":        func(s *Spec) { s.EndToEnd = s.EndToEnd[1:] },
		"bad direction":     func(s *Spec) { s.EndToEnd[1].Better = "more" },
		"absolute path":     func(s *Spec) { s.Paths = []string{"/bench"} },
		"run_seconds 61":    func(s *Spec) { s.RunSeconds = 61 },
		"two-line why":      func(s *Spec) { s.Workloads[0].Why = "a\nb" },
		"layer with bound":  func(s *Spec) { s.PerLayer[0].Bound = &big },
		"unit with a space": func(s *Spec) { s.EndToEnd[1].Unit = "MB s" },
	} {
		s := good
		s.Workloads = append([]SpecWorkload(nil), good.Workloads...)
		s.EndToEnd = append([]SpecMetric(nil), good.EndToEnd...)
		s.PerLayer = append([]SpecMetric(nil), good.PerLayer...)
		mutate(&s)
		if s.validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func quickConfig(t *testing.T, trace bool) config {
	return config{seed: 3, seconds: time.Second, trace: trace, quick: true,
		workDir: t.TempDir(), traceDir: t.TempDir()}
}

// TestWorkloadsQuick runs every workload in-process on tiny inputs, untraced
// and traced, and checks that each emits exactly its metric set with the
// right units and no failed operation.
func TestWorkloadsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, trace := range []bool{false, true} {
		want := endToEnd
		if trace {
			want = perLayer
		}
		for _, w := range workloads {
			cfg := quickConfig(t, trace)
			res, err := runWorkload(w.name, cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", w.name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.name, trace, d.name, m.Unit, d.unit)
				case !trace && !(m.Value > 0):
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(cfg.traceDir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: trace file: %v", w.name, err)
				}
			}
		}
	}
}

// TestCorruptBlobCounted damages one compressed output per batch workload:
// the decode must fail and the run must count it as a failed operation.
func TestCorruptBlobCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	for _, name := range []string{"ocean2d-nospec", "hurricane3d-stream"} {
		cfg := quickConfig(t, false)
		cfg.corrupt = true
		res, err := runWorkload(name, cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed < 1 {
			t.Errorf("%s: corrupted blob not counted: correct=%v failed=%d", name, res.Correct, res.Failed)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 4}, 2, 4},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 2.5, 7.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	clean := opCounts{attempted: [2]int{30, 30}}
	for _, c := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		ops         opCounts
		want        string
	}{
		{"same runs", base, base, false, clean, "ok (identical)"},
		{"small shift", base, shift(base, 1), true, clean, "ok"},
		{"throughput drop", base, shift(base, -20), false, clean, "regressed"},
		{"latency rise", base, shift(base, 20), true, clean, "regressed"},
		{"clear gain", base, shift(base, 5), false, clean, "gain"},
		{"noisy candidate", base, []float64{60, 140, 70, 130, 100, 65, 135, 100, 95, 105}, false, clean, "unresolved"},
		// 2 of 2 wins is not 9 of 10: too few pairs to claim a gain.
		{"gain on 2 pairs", base[:2], shift(base[:2], 5), false, clean, "ok"},
		{"gain on 9 pairs", base[:9], shift(base[:9], 5), false, clean, "ok"},
		{"faster but more failures", base, shift(base, 5), false,
			opCounts{failed: [2]int{0, 1}, attempted: [2]int{30, 30}}, "failed ops"},
		{"identical but incorrect", base, base, false,
			opCounts{attempted: [2]int{30, 30}, incorrect: true}, "failed ops"},
	} {
		if got := compareMetric(c.a, c.b, c.lowerBetter, 0.1, c.ops).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
