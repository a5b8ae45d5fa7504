package main

import (
	"encoding/json"
	"errors"
	"math"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestBenchgateExitStatus pins the contract `make benchgate` relies on:
// the built `cpbench trend OLD.json NEW.json` exits 1 when one cr_all
// moves by a single ULP and 0 when the snapshots agree.
func TestBenchgateExitStatus(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "cpbench")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cpbench: %v\n%s", err, out)
	}

	oldP := writeReport(t, dir, "old.json", fixtureReport(nil))
	ulpP := writeReport(t, dir, "ulp.json", fixtureReport(mutateRow(0, func(r *experiments.BaselineRow) {
		r.CRAll = math.Nextafter(r.CRAll, math.Inf(1))
	})))
	sameP := writeReport(t, dir, "same.json", fixtureReport(nil))

	run := func(args ...string) (int, string) {
		out, err := exec.Command(bin, append([]string{"trend"}, args...)...).CombinedOutput()
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return ee.ExitCode(), string(out)
		}
		if err != nil {
			t.Fatalf("running cpbench trend: %v\n%s", err, out)
		}
		return 0, string(out)
	}

	if code, out := run(oldP, ulpP); code != 1 {
		t.Errorf("cpbench trend exited %d on a one-ULP cr_all change, want 1:\n%s", code, out)
	} else if !strings.Contains(out, "MISMATCH table5/ours|tau=0.01: cr_all") {
		t.Errorf("exit 1 but no cr_all mismatch line:\n%s", out)
	}

	if code, out := run(oldP, sameP); code != 0 {
		t.Errorf("cpbench trend exited %d on identical snapshots:\n%s", code, out)
	} else if !strings.Contains(out, "rows identical") {
		t.Errorf("missing pass summary:\n%s", out)
	}
}

// TestBaselineFixtureSchema guards the fixtures against schema drift: a
// renamed JSON field would silently turn every trend comparison into
// "zero equals zero, no mismatch".
func TestBaselineFixtureSchema(t *testing.T) {
	b, err := json.Marshal(fixtureReport(nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"cr_all"`, `"cr_per_component"`, `"tp"`, `"fp"`, `"fn"`, `"ft"`, `"compressor"`, `"settings"`, `"tables"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("fixture JSON lost key %s:\n%s", key, b)
		}
	}
	for _, key := range []string{`"sc_mbps"`, `"sd_mbps"`} {
		if strings.Contains(string(b), key) {
			t.Errorf("fixture JSON still carries throughput key %s; bench/ owns speed:\n%s", key, b)
		}
	}
}
