package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/tracking"
)

// cmdPackSeries compresses a sequence of raw frames into one version-3
// archive, one blob per frame. Frame paths are produced with
// fmt.Sprintf(pattern, step).
func cmdPackSeries(args []string) error {
	fs := flag.NewFlagSet("pack-series", flag.ExitOnError)
	pattern := fs.String("in", "", "input frame pattern, e.g. frame%03d.f32")
	steps := fs.Int("steps", 0, "number of frames")
	dimsFlag := fs.String("dims", "", "grid dimensions NXxNY[xNZ]")
	out := fs.String("out", "", "output archive")
	tau := fs.Float64("tau", 0.01, "error bound (range-relative unless -abs)")
	abs := fs.Bool("abs", false, "interpret -tau as absolute")
	specFlag := fs.String("spec", "NoSpec", "speculation target")
	temporal := fs.Bool("temporal", false, "predict each frame from the previous decompressed frame")
	fs.Parse(args)
	if *pattern == "" || *out == "" || *dimsFlag == "" || *steps < 1 {
		return fmt.Errorf("-in, -dims, -steps and -out are required")
	}
	dims, err := codec.ParseDims(*dimsFlag)
	if err != nil {
		return err
	}
	spec, err := codec.ParseSpec(*specFlag)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	sw := archive.NewStreamWriter(f)
	series := archive.NewSeries(sw)
	var rawTotal int64
	for s := 0; s < *steps; s++ {
		path := fmt.Sprintf(*pattern, s)
		comps, err := loadRaw(path, dims)
		if err != nil {
			return fmt.Errorf("frame %d (%s): %w", s, path, err)
		}
		opts := core.Options{Tau: *tau, Spec: spec}
		if !*abs {
			opts.Tau *= field.Range(comps...)
		}
		if *temporal {
			err = series.Append(dims, comps, opts)
		} else {
			var blob []byte
			if blob, _, err = core.Compress(dims, comps, opts); err == nil {
				_, err = sw.AppendBlob(blob)
			}
		}
		if err != nil {
			return fmt.Errorf("frame %d: %w", s, err)
		}
		rawTotal += rawSize(dims)
	}
	if err := sw.Close(); err != nil {
		return err
	}
	fmt.Printf("packed %d frames: %d -> %d bytes (ratio %.2f)\n",
		*steps, rawTotal, sw.Size(), float64(rawTotal)/float64(sw.Size()))
	return nil
}

// cmdTrack extracts and tracks critical points through an archive.
func cmdTrack(args []string) error {
	fs := flag.NewFlagSet("track", flag.ExitOnError)
	in := fs.String("in", "", "input archive")
	radius := fs.Float64("radius", 2, "max per-step motion (grid units)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	inF, size, err := openSized(*in)
	if err != nil {
		return err
	}
	defer inF.Close()
	sr, err := archive.OpenStream(inF, size)
	if err != nil {
		return err
	}
	if sr.Steps() == 0 {
		return fmt.Errorf("archive is empty")
	}
	// Decode the whole series (handles temporal chaining) and detect
	// every step with the first frame's transform, so detection is
	// consistent across steps.
	dims, frames, err := archive.DecodeSeries(sr)
	if err != nil {
		return err
	}
	var tr fixed.Transform
	steps := make([][]cp.Point, len(frames))
	for i, comps := range frames {
		if i == 0 {
			if tr, err = fixed.Fit(comps...); err != nil {
				return err
			}
		}
		steps[i] = cp.Detect(dims, comps, tr)
	}
	tracks := tracking.Build(steps, tracking.Options{Radius: *radius, MatchType: true})
	sum := tracking.Summarize(tracks)
	fmt.Printf("%d steps, %d tracks (mean length %.1f, max %d, %d singletons)\n",
		sr.Steps(), sum.Tracks, sum.MeanLen, sum.MaxLen, sum.Singleton)
	// Print the longest tracks.
	printed := 0
	for _, t := range tracks {
		if t.Length() >= sum.MaxLen && printed < 5 {
			first := t.Points[0]
			last := t.Points[len(t.Points)-1]
			fmt.Printf("  track steps %d..%d %-18s (%.1f,%.1f,%.1f) -> (%.1f,%.1f,%.1f)\n",
				t.Start, t.End(), first.Type,
				first.Pos[0], first.Pos[1], first.Pos[2],
				last.Pos[0], last.Pos[1], last.Pos[2])
			printed++
		}
	}
	return nil
}
