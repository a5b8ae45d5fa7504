package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
)

// Spec is BENCHMARK.json: the benchmark's command, workloads, and metrics
// with their directions and regression bounds.
type Spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []SpecWorkload `json:"workloads"`
	EndToEnd   []SpecMetric   `json:"end_to_end"`
	PerLayer   []SpecMetric   `json:"per_layer"`
}

type SpecWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// SpecMetric is one metric. Bound, end-to-end only, is the share of the
// baseline median by which the metric may worsen before a change counts
// as a regression.
type SpecMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRx = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRx = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRx = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// loadSpec reads and validates BENCHMARK.json.
func loadSpec(path string) (Spec, error) {
	var s Spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if len(b) > 64<<10 {
		return s, fmt.Errorf("%s: %d bytes, over 64 KiB", path, len(b))
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.validate(); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func (s Spec) validate() error {
	if len(s.Command) == 0 || len(s.Command) > 32 {
		return fmt.Errorf("command has %d strings, want 1-32", len(s.Command))
	}
	for _, a := range s.Command {
		if len(a) > 200 || strings.HasPrefix(a, "/") || strings.Contains(a, "..") {
			return fmt.Errorf("command argument %q", a)
		}
	}
	if len(s.Paths) == 0 || len(s.Paths) > 16 {
		return fmt.Errorf("paths has %d entries, want 1-16", len(s.Paths))
	}
	for _, p := range s.Paths {
		if !pathRx.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			return fmt.Errorf("path %q", p)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d, want 1-60", s.RunSeconds)
	}
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		return fmt.Errorf("%d workloads, want 2-8", len(s.Workloads))
	}
	if len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1-16", len(s.EndToEnd))
	}
	if len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1-128", len(s.PerLayer))
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRx.MatchString(name) {
			return fmt.Errorf("bad name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	setup := false
	for i, m := range append(append([]SpecMetric(nil), s.EndToEnd...), s.PerLayer...) {
		if err := use(m.Name); err != nil {
			return err
		}
		if !unitRx.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			return fmt.Errorf("metric %s: better must be higher or lower", m.Name)
		}
		endToEnd := i < len(s.EndToEnd)
		if endToEnd != (m.Bound != nil) {
			return fmt.Errorf("metric %s: end-to-end metrics and only they carry a bound", m.Name)
		}
		if endToEnd && (*m.Bound <= 0 || *m.Bound > 0.25) {
			return fmt.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, *m.Bound)
		}
		if m.Name == "setup_s" {
			setup = endToEnd && m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		return fmt.Errorf("end_to_end must hold setup_s in s, lower is better")
	}
	return nil
}
