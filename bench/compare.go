package main

import (
	"flag"
	"fmt"
	"io"
	"math"
)

// runCompare implements
//
//	bench compare [-spec BENCHMARK.json] A.json... -- B.json...
//
// A is the baseline, B the candidate; each file is a report of runs
// (-out). For every workload and end-to-end metric it prints each side's
// median and quartile spread and a verdict under the metric's direction
// and bound:
//
//   - failed ops: some run of the workload reported correct=false, or B
//     has more failed operations than A; its speed then counts for
//     nothing;
//   - unresolved: one side's spread (IQR / median) exceeds the bound, and
//     the sides do not separate completely;
//   - regressed: B's median is worse than A's by more than the bound;
//   - gain: over at least 10 pairs (run i of A against run i of B, ties
//     counting for neither) B wins at least 9 in 10, and the medians
//     differ by more than A's IQR;
//   - ok: none of these. "identical" marks values equal in every pair.
//
// The exit status is 1 when any metric regressed or any row shows
// failed ops.
func runCompare(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var sides [2][]string
	side := 0
	for _, a := range fs.Args() {
		if a == "--" && side == 0 {
			side = 1
			continue
		}
		sides[side] = append(sides[side], a)
	}
	if len(sides[0]) == 0 || len(sides[1]) == 0 {
		fmt.Fprintln(w, "usage: bench compare [-spec BENCHMARK.json] A.json... -- B.json...")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	var runs [2][]Run
	for s, files := range sides {
		for _, f := range files {
			rep, err := readReport(f)
			if err != nil {
				fmt.Fprintln(w, "compare:", err)
				return 2
			}
			for _, r := range rep.Runs {
				if !r.Trace {
					runs[s] = append(runs[s], r)
				}
			}
		}
	}
	fmt.Fprintf(w, "A: %d runs, B: %d runs\n", len(runs[0]), len(runs[1]))
	ops := map[string]opCounts{}
	for _, wl := range spec.Workloads {
		var oc opCounts
		for s := range runs {
			for _, r := range runs[s] {
				if res, ok := r.Workloads[wl.Name]; ok {
					oc.failed[s] += res.Failed
					oc.attempted[s] += res.Attempted
					oc.incorrect = oc.incorrect || !res.Correct
				}
			}
		}
		ops[wl.Name] = oc
		fmt.Fprintf(w, "%-19s failed ops: A %d/%d, B %d/%d\n", wl.Name,
			oc.failed[0], oc.attempted[0], oc.failed[1], oc.attempted[1])
	}
	fmt.Fprintf(w, "%-19s %-16s %-6s %12s %7s %12s %7s %8s %6s %6s  %s\n",
		"workload", "metric", "unit", "A median", "A IQR", "B median", "B IQR", "change", "bound", "wins", "verdict")
	bad := false
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			var vals [2][]float64
			for s := range runs {
				for _, r := range runs[s] {
					if res, ok := r.Workloads[wl.Name]; ok {
						if mt, ok := res.Metrics[m.Name]; ok {
							vals[s] = append(vals[s], mt.Value)
						}
					}
				}
			}
			if len(vals[0]) == 0 || len(vals[1]) == 0 {
				continue
			}
			c := compareMetric(vals[0], vals[1], m.Better == "lower", *m.Bound, ops[wl.Name])
			bad = bad || c.verdict == "regressed" || c.verdict == "failed ops"
			fmt.Fprintf(w, "%-19s %-16s %-6s %12.4f %6.1f%% %12.4f %6.1f%% %+7.1f%% %5.1f%% %2d/%-3d  %s\n",
				wl.Name, m.Name, m.Unit, c.medA, 100*c.spreadA, c.medB, 100*c.spreadB,
				100*c.change, 100**m.Bound, c.wins, c.pairs, c.verdict)
		}
	}
	if bad {
		return 1
	}
	return 0
}

// opCounts sums one workload's operations over each side's runs.
type opCounts struct {
	failed, attempted [2]int // [0] is A, [1] is B
	incorrect         bool   // some run, on either side, reported correct=false
}

// flagged reports whether the runs' outputs disqualify the comparison.
func (o opCounts) flagged() bool { return o.incorrect || o.failed[1] > o.failed[0] }

// minPairs is the fewest pairs on which a gain can be claimed: 9 wins in
// 10 pairs, or the same share of more.
const minPairs = 10

type comparison struct {
	medA, medB       float64
	spreadA, spreadB float64 // IQR as a share of the median
	change           float64 // (B − A) / A
	wins, pairs      int
	verdict          string
}

// compareMetric applies the direction and bound of one metric to the
// baseline values a and the candidate values b, whose runs had the
// operation counts ops.
func compareMetric(a, b []float64, lowerBetter bool, bound float64, ops opCounts) comparison {
	c := comparison{medA: median(a), medB: median(b)}
	q1a, q3a := quartiles(a)
	q1b, q3b := quartiles(b)
	c.spreadA = ratioOf(q3a-q1a, c.medA)
	c.spreadB = ratioOf(q3b-q1b, c.medB)
	c.change = ratioOf(c.medB-c.medA, c.medA)
	better := func(x, y float64) bool { // x reads better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	worse := c.change
	if !lowerBetter {
		worse = -c.change
	}
	identical := true
	c.pairs = min(len(a), len(b))
	for i := 0; i < c.pairs; i++ {
		if better(b[i], a[i]) {
			c.wins++
		}
		identical = identical && math.Float64bits(a[i]) == math.Float64bits(b[i])
	}
	allBetter, allWorse := true, true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
			allWorse = allWorse && better(y, x)
		}
	}
	gap := c.medB - c.medA
	if gap < 0 {
		gap = -gap
	}
	// A spread wider than the bound leaves the comparison unresolved
	// unless the two sides do not overlap at all.
	resolved := (c.spreadA <= bound && c.spreadB <= bound) || allBetter || allWorse
	switch {
	case ops.flagged():
		c.verdict = "failed ops"
	case identical && len(a) == len(b):
		c.verdict = "ok (identical)"
	case !resolved:
		c.verdict = "unresolved"
	case worse > bound:
		c.verdict = "regressed"
	case c.pairs >= minPairs && 10*c.wins >= 9*c.pairs && gap > q3a-q1a:
		c.verdict = "gain"
	default:
		c.verdict = "ok"
	}
	return c
}
