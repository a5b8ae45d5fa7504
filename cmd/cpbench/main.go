// Command cpbench regenerates the paper's evaluation tables and figures
// (see DESIGN.md for the experiment index) and runs the repository's
// measurement gates:
//
//	cpbench table2 table3 table5 table6 table7 fig5 fig6 fig7 fig8 fig9 ablation shm
//	cpbench baseline
//	cpbench all
//	cpbench trend OLD.json NEW.json
//	cpbench pred [flags]
//	cpbench load [flags]
//
// Flags scale the synthetic datasets; the defaults run each experiment in
// seconds to minutes on a laptop. Fig. 5 writes PPM images to -out; pass
// -csv to additionally export every table as CSV for plotting, -metrics
// to write per-experiment telemetry JSON (stage spans + counters).
//
// The baseline command runs Tables V–VII and writes BENCH_baseline.json:
// ratios, preservation counts, and per-stage timings. trend compares two
// such snapshots exactly (`make benchgate`); pred is the filtered-
// predicate microbench and gate (`make predgate`); load drives topozipd
// under a load sweep and a client-fault soak (`make loadgate`). pred and
// load take their own flags (`cpbench pred -h`).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

func main() {
	// trend takes two snapshot paths and no dataset knobs; intercept it
	// before the global flags parse.
	if len(os.Args) > 1 && os.Args[1] == "trend" {
		differs, err := runTrend(os.Args[2:], os.Stdout)
		if err != nil {
			fatal(err)
		}
		if differs {
			os.Exit(1)
		}
		return
	}
	// pred likewise: the predicate microbench has its own flag set.
	if len(os.Args) > 1 && os.Args[1] == "pred" {
		failed, err := runPred(os.Args[2:], os.Stdout)
		if err != nil {
			fatal(err)
		}
		if failed {
			os.Exit(1)
		}
		return
	}
	// load likewise: the topozipd load generator and service-level gate.
	if len(os.Args) > 1 && os.Args[1] == "load" {
		failed, err := runLoad(os.Args[2:], os.Stdout)
		if err != nil {
			fatal(err)
		}
		if failed {
			os.Exit(1)
		}
		return
	}
	ocean := flag.String("ocean", "384x288", "Ocean dims (NXxNY)")
	hurr := flag.String("hurricane", "64x64x32", "Hurricane dims (NXxNYxNZ)")
	nek := flag.Int("nek", 64, "Nek5000 cube side")
	rdnek := flag.Int("rdnek", 40, "Nek5000 cube side for Fig.6")
	turb := flag.Int("turb-block", 24, "Turbulence per-rank block side (Fig.9)")
	fig9grids := flag.String("fig9-grids", "2,4", "comma-separated rank-grid sides for Fig.9 (ranks = side³)")
	tau := flag.Float64("tau", 0.01, "our method's range-relative error bound")
	out := flag.String("out", ".", "output directory for Fig.5 images")
	csvDir := flag.String("csv", "", "when set, also write each table as CSV into this directory")
	metricsDir := flag.String("metrics", "", "when set, write per-experiment telemetry JSON into this directory")
	baselineOut := flag.String("baseline-out", "BENCH_baseline.json", "output path of the baseline command")
	faults := flag.String("faults", "", "fault-injection spec for the shm experiment, e.g. seed=7,panic=0.2")
	listen := flag.String("listen", "", "serve /metrics, /healthz, /debug/{trace,vars,pprof} on this address while experiments run")
	flag.Parse()

	inj, err := faultinject.Parse(*faults)
	if err != nil {
		fatal(err)
	}
	cfg := experiments.Config{
		NekN: *nek, RDNekN: *rdnek, TurbBlock: *turb, TauRel: *tau,
		Faults: inj,
	}
	for _, part := range strings.Split(*fig9grids, ",") {
		g, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || g < 1 {
			fatal(fmt.Errorf("bad -fig9-grids entry %q", part))
		}
		cfg.Fig9Grids = append(cfg.Fig9Grids, g)
	}
	if _, err := fmt.Sscanf(*ocean, "%dx%d", &cfg.OceanNX, &cfg.OceanNY); err != nil {
		fatal(fmt.Errorf("bad -ocean: %w", err))
	}
	if _, err := fmt.Sscanf(*hurr, "%dx%dx%d", &cfg.HurrNX, &cfg.HurrNY, &cfg.HurrNZ); err != nil {
		fatal(fmt.Errorf("bad -hurricane: %w", err))
	}

	// With -listen, one collector spans the whole invocation so the debug
	// endpoint sees every experiment; per-experiment metrics files keep
	// their own collectors only when -listen is off.
	if *listen != "" {
		cfg.Tel = telemetry.New()
		srv, err := obs.Serve(*listen, cfg.Tel, nil)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("debug endpoint on http://%s\n", srv.Addr())
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: cpbench [flags] <table2|table3|table5|table6|table7|fig5|fig6|fig7|fig8|fig9|ablation|shm|baseline|all>...")
		fmt.Fprintln(os.Stderr, "       cpbench trend OLD.json NEW.json")
		fmt.Fprintln(os.Stderr, "       cpbench pred|load [flags]")
		os.Exit(2)
	}
	if len(args) == 1 && args[0] == "all" {
		args = []string{"table2", "table3", "table5", "table6", "table7",
			"fig5", "fig6", "fig7", "fig8", "fig9", "ablation"}
	}
	for _, name := range args {
		start := time.Now()
		if name == "baseline" {
			if err := writeBaseline(cfg, *baselineOut); err != nil {
				fatal(fmt.Errorf("baseline: %w", err))
			}
			fmt.Printf("[baseline written to %s in %v]\n\n", *baselineOut, time.Since(start).Round(time.Millisecond))
			continue
		}
		if *metricsDir != "" && *listen == "" {
			cfg.Tel = telemetry.New()
		}
		tbl, err := run(name, cfg, *out)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		tbl.Format(os.Stdout)
		if *csvDir != "" {
			if err := writeCSV(tbl, filepath.Join(*csvDir, name+".csv")); err != nil {
				fatal(err)
			}
		}
		if *metricsDir != "" {
			if err := writeMetrics(cfg.Tel, filepath.Join(*metricsDir, name+".metrics.json")); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}

func writeMetrics(tel *telemetry.Collector, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tel.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeBaseline(cfg experiments.Config, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := experiments.WriteBaseline(cfg, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(name string, cfg experiments.Config, outDir string) (*experiments.Table, error) {
	switch name {
	case "table2":
		res, err := experiments.Table2(cfg)
		return &res.Table, err
	case "table3":
		res, err := experiments.Table3(cfg)
		return &res.Table, err
	case "table5":
		res, err := experiments.Table5(cfg)
		return &res.Table, err
	case "table6":
		res, err := experiments.Table6(cfg)
		return &res.Table, err
	case "table7":
		res, err := experiments.Table7(cfg)
		return &res.Table, err
	case "fig5":
		_, tbl, err := experiments.Fig5(cfg, outDir)
		return &tbl, err
	case "fig6":
		_, tbl, err := experiments.Fig6(cfg)
		return &tbl, err
	case "fig7":
		_, tbl, err := experiments.Fig7(cfg)
		return &tbl, err
	case "fig8":
		_, tbl, err := experiments.Fig8(cfg)
		return &tbl, err
	case "fig9":
		_, tbl, err := experiments.Fig9(cfg)
		return &tbl, err
	case "ablation":
		_, tbl, err := experiments.Ablation(cfg)
		return &tbl, err
	case "shm":
		res, err := experiments.ShmScaling(cfg)
		return &res.Table, err
	default:
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
}

func writeCSV(tbl *experiments.Table, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tbl.CSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cpbench:", err)
	os.Exit(1)
}
