package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"

	"repro/internal/experiments"
)

// The trend mode compares two baseline snapshots (results/BENCH_*.json)
// exactly, giving make check a deterministic gate on Tables V–VII:
//
//	cpbench trend OLD.json NEW.json
//
// Rows are matched by (table, compressor, settings). Each row's
// compression ratios (cr_all, cr_per_component) and TP/FP/FN/FT counts
// are functions of the code and the inputs alone, so the gate demands
// they be identical — floats by their bits. A change in either
// direction fails, as does a table or row present in only one snapshot:
// the committed snapshot is the record of what the code produces, and
// an intended change is one the author re-records with `make baseline`
// and explains. Speed is the bench/ module's business. Exit status 1
// signals at least one mismatch.

// runTrend executes the trend mode and reports whether the snapshots
// differ (the caller turns that into exit status 1).
func runTrend(args []string, w io.Writer) (differs bool, err error) {
	if len(args) != 2 {
		return false, fmt.Errorf("trend: usage: cpbench trend OLD.json NEW.json (got %d args)", len(args))
	}
	oldRep, err := readBaseline(args[0])
	if err != nil {
		return false, err
	}
	newRep, err := readBaseline(args[1])
	if err != nil {
		return false, err
	}
	n, rows := diffBaselines(w, oldRep, newRep)
	if n > 0 {
		fmt.Fprintf(w, "trend: %d mismatch(es) against %s; if the change is intended, run `make baseline` and explain it in CHANGES.md\n", n, args[0])
		return true, nil
	}
	fmt.Fprintf(w, "trend: %d rows identical to %s\n", rows, args[0])
	return false, nil
}

func readBaseline(path string) (*experiments.BaselineReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep experiments.BaselineReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// diffBaselines prints one line per mismatch and returns the number of
// mismatches and of rows that matched. Output order is deterministic
// (sorted table names, snapshot row order) so gate logs diff cleanly.
func diffBaselines(w io.Writer, oldRep, newRep *experiments.BaselineReport) (mismatches, same int) {
	for _, tname := range sortedTableNames(oldRep.Tables, newRep.Tables) {
		oldTbl, inOld := oldRep.Tables[tname]
		newTbl, inNew := newRep.Tables[tname]
		if !inOld || !inNew {
			fmt.Fprintf(w, "MISMATCH %s: table missing from %s snapshot\n", tname, missingSide(inOld))
			mismatches++
			continue
		}
		newRows := make(map[string]experiments.BaselineRow, len(newTbl.Rows))
		for _, r := range newTbl.Rows {
			newRows[rowKey(r)] = r
		}
		for _, o := range oldTbl.Rows {
			key := rowKey(o)
			n, ok := newRows[key]
			if !ok {
				fmt.Fprintf(w, "MISMATCH %s/%s: row missing from new snapshot\n", tname, key)
				mismatches++
				continue
			}
			delete(newRows, key)
			if d := diffRow(w, tname+"/"+key, o, n); d > 0 {
				mismatches += d
			} else {
				same++
			}
		}
		for _, r := range newTbl.Rows {
			if _, extra := newRows[rowKey(r)]; extra {
				fmt.Fprintf(w, "MISMATCH %s/%s: row missing from old snapshot\n", tname, rowKey(r))
				mismatches++
			}
		}
	}
	return mismatches, same
}

func rowKey(r experiments.BaselineRow) string { return r.Compressor + "|" + r.Settings }

func missingSide(inOld bool) string {
	if inOld {
		return "new"
	}
	return "old"
}

// diffRow prints and counts the fields of one row that differ.
func diffRow(w io.Writer, where string, o, n experiments.BaselineRow) int {
	bad := 0
	report := func(metric string, oldV, newV any) {
		fmt.Fprintf(w, "MISMATCH %s: %s %v -> %v\n", where, metric, oldV, newV)
		bad++
	}
	if math.Float64bits(o.CRAll) != math.Float64bits(n.CRAll) {
		report("cr_all", o.CRAll, n.CRAll)
	}
	if !slices.EqualFunc(o.CRPer, n.CRPer, func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b)
	}) {
		report("cr_per_component", o.CRPer, n.CRPer)
	}
	for _, c := range []struct {
		metric     string
		oldV, newV int
	}{
		{"tp", o.TP, n.TP}, {"fp", o.FP, n.FP}, {"fn", o.FN, n.FN}, {"ft", o.FT, n.FT},
	} {
		if c.oldV != c.newV {
			report(c.metric, c.oldV, c.newV)
		}
	}
	return bad
}

// sortedTableNames returns the union of both snapshots' table names.
func sortedTableNames(a, b map[string]experiments.BaselineTable) []string {
	names := make([]string, 0, len(a)+len(b))
	for k := range a {
		names = append(names, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	return names
}
