package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestPredSoSRow runs `cpbench pred` on tiny golden fields and checks the
// SoS row: ties found on both round trips, the tie path agreeing with
// SoSSign on every one, and the row feeding the gate summary.
func TestPredSoSRow(t *testing.T) {
	var out bytes.Buffer
	if _, err := runPred([]string{"-ocean", "64x48", "-nek", "12", "-count", "1", "-samples", "4000"}, &out); err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile(`sos: .*ties (\d+) \(ocean (\d+), nek (\d+)\), mean plans/tie ([0-9.]+), mismatches (\d+)`).
		FindStringSubmatch(out.String())
	if row == nil {
		t.Fatalf("no sos row in:\n%s", out.String())
	}
	for i, what := range []string{"ocean ties", "nek ties"} {
		if n, _ := strconv.Atoi(row[2+i]); n == 0 {
			t.Errorf("%s: none harvested", what)
		}
	}
	if plans, _ := strconv.ParseFloat(row[4], 64); plans < 1 || plans > 17 {
		t.Errorf("mean plans/tie %v outside [1, 17]", plans)
	}
	if row[5] != "0" {
		t.Errorf("tie path disagrees with SoSSign on %s ties", row[5])
	}
	if !regexp.MustCompile(`gate: (ok .*sos [0-9.]+x|FAIL)`).MatchString(out.String()) {
		t.Errorf("gate summary does not report the sos row:\n%s", out.String())
	}
}
