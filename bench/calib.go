package main

import (
	"runtime"
	"time"
)

// Host-speed reference. On the shared two-core host the benchmark was
// defined on, the same operation ran up to 45% slower for minutes at a
// time, and its time swung by 20–35% (IQR ÷ median) from one call to the
// next. CPU time slows exactly as much as wall time, and the VM exposes no
// hardware counters, so neither can take the place of wall time. Runs a
// few minutes apart therefore disagree by more than any useful regression
// bound.
//
// So before every timed call the benchmark collects the heap and times a
// fixed computation of its own, refLoop. Every time-based end-to-end
// metric is reported at the host speed at which the loop takes refTime:
// divided by hostFactor, the run's mean loop time over refTime. The loop
// is the compressor's own kind of work, frozen: the sign of a fixed-point
// 2×2 determinant for every cell of a grid larger than the L1 cache,
// branching on each sign. Loops without data-dependent branches (a
// multiply chain, a float chain, a streaming sum, a pointer chase over
// 32 MiB) slowed by 10–16% while the workloads slowed by 45%, and tracked
// them worse. Over twenty runs of each workload whose hostFactor ranged
// from 0.9 to 1.7, the workloads' mean operation times grew as
// hostFactor^0.6 (the daemon, whose requests also wait on I/O) to
// hostFactor^1.0, with correlations of 0.92–0.99. bench/README.md
// gives the spreads with and without the scaling.
//
// The loop never calls the program and runs on a collected heap, so no
// change to the program can move it; a change that allocates more does
// not slow it through background marking or sweeping.

// refTime is refLoop's time on the undisturbed host (a 2-core Intel Xeon
// VM, Go 1.24): the 5th percentile of 2900 samples.
const refTime = 3400 * time.Microsecond

// refGrid holds the fixed-point vector components (u, v interleaved) of a
// refNX × refNY grid, 768 KiB of int64: past L1, inside L2.
const refNX, refNY = 256, 192

var refGrid = func() []int64 {
	g := make([]int64, 2*refNX*refNY)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range g {
		x = x*6364136223846793005 + 1442695040888963407
		g[i] = int64(x>>20) - 1<<43
	}
	return g
}()

var refSink int

// refRounds sweeps of the grid take about refTime.
const refRounds = 20

// refLoop runs the reference computation once and returns its duration:
// for each cell, the orientation of its vectors at (i, j), (i+1, j) and
// (i, j+1).
func refLoop() time.Duration {
	t0 := time.Now()
	g := refGrid
	pos := 0
	for r := 0; r < refRounds; r++ {
		for i := 0; i+refNX+1 < refNX*refNY; i++ {
			ux, uy := g[2*i], g[2*i+1]
			vx, vy := g[2*i+2], g[2*i+3]
			wx, wy := g[2*(i+refNX)], g[2*(i+refNX)+1]
			if (vx-ux)*(wy-uy)-(vy-uy)*(wx-ux) > 0 {
				pos++
			}
		}
	}
	refSink += pos
	return time.Since(t0)
}

// sampleHost times refLoop once. It collects the heap first, so the loop
// runs on a quiet heap and the next operation starts on one.
func (m *meter) sampleHost() {
	runtime.GC()
	m.calib = append(m.calib, refLoop().Seconds())
}

// hostFactor is how much slower than the reference speed the host ran
// over the run: the trimmed mean of the loop's samples ÷ refTime. The
// host alternates between a fast and a slow state every few hundred
// milliseconds, and what drifts from run to run is the share of time it
// spends slow; a mean follows that share in proportion, so every
// time-based metric is a trimmed mean (or a percentile) of its samples
// divided by hostFactor.
func (m *meter) hostFactor() float64 {
	return trimmedMean(m.calib) / refTime.Seconds()
}
