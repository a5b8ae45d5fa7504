// Command topozipd serves the critical-point-preserving compressor over
// HTTP: a long-running daemon hardened for untrusted, overloading, and
// disconnecting clients. The heavy lifting lives in internal/server;
// this binary is flags, signals, and the process lifecycle.
//
// Usage:
//
//	topozipd -listen :8080
//	topozipd -listen :8080 -inflight 4 -queue 8 -max-mem 1GiB -timeout 30s
//
// Endpoints:
//
//	POST /v1/compress?dims=NXxNY[xNZ]&tau=0.01&spec=ST1    raw in, container out
//	POST /v1/decompress                                    container in, raw out
//	POST /v1/verify?dims=...&tau=...                       raw in, JSON preservation report out
//	GET  /v1/codecs                                        registered formats
//	GET  /metrics | /healthz | /debug/{trace,flightrec,vars,pprof}
//
// Overload is shed with 429 + Retry-After; SIGTERM/SIGINT starts a
// graceful drain (readiness flips, in-flight requests finish, then the
// process exits).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/codec"
	"repro/internal/faultinject"
	"repro/internal/flightrec"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "topozipd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("topozipd", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:8080", "listen address (\":0\" picks a free port)")
	inflight := fs.Int("inflight", 0, "max concurrently executing heavy requests (0 = derive from cores)")
	queue := fs.Int("queue", -1, "max requests waiting for admission before shedding with 429 (-1 = 2x inflight)")
	reqWorkers := fs.Int("req-workers", 0, "slab-pipeline workers per admitted request (0 = min(4, cores))")
	maxMem := fs.String("max-mem", "", "daemon-wide slab-pipeline memory budget, e.g. 1GiB; split across inflight requests")
	maxBody := fs.String("max-body", "1GiB", "largest accepted request body")
	timeout := fs.Duration("timeout", 60*time.Second, "per-request deadline (clients may shorten via ?deadline_ms=)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight requests")
	spool := fs.String("spool", "", "directory for body spool files (default: system temp dir)")
	flightrecOut := fs.String("flightrec", "", "write a flight-recorder dump here on exit")
	faults := fs.String("faults", "", "fault-injection spec for soak tests, e.g. seed=7,panic=0.05 (default: $"+faultinject.EnvVar+")")
	fs.Parse(args)

	memBudget, err := codec.ParseByteSize(*maxMem)
	if err != nil {
		return fmt.Errorf("-max-mem: %w", err)
	}
	bodyLimit, err := codec.ParseByteSize(*maxBody)
	if err != nil {
		return fmt.Errorf("-max-body: %w", err)
	}
	inj, err := faultinject.Parse(*faults)
	if err != nil {
		return err
	}
	if *faults == "" {
		inj = faultinject.FromEnv(os.LookupEnv)
	}

	// A daemon always runs instrumented: /metrics and /debug/flightrec
	// are part of its operational surface, not an opt-in.
	tel := telemetry.New()
	rec := flightrec.New(0)
	inj.SetRecorder(rec)

	srv := server.New(server.Config{
		MaxInflight:       *inflight,
		Queue:             *queue,
		WorkersPerRequest: *reqWorkers,
		MaxMemBytes:       memBudget,
		MaxBodyBytes:      bodyLimit,
		RequestTimeout:    *timeout,
		SpoolDir:          *spool,
		Tel:               tel,
		Rec:               rec,
		Faults:            inj,
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Printf("topozipd serving on http://%s\n", ln.Addr())

	// SIGTERM/SIGINT → graceful drain: stop accepting, finish what was
	// admitted, then exit. A second signal aborts immediately.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	drained := make(chan error, 1)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "topozipd: %v: draining (up to %v)\n", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		go func() {
			<-sigCh
			fmt.Fprintln(os.Stderr, "topozipd: second signal: aborting")
			cancel()
		}()
		drained <- srv.Drain(ctx)
	}()

	serveErr := srv.Serve(ln)
	// Serve returns once Drain (or a listener error) stops it; wait for
	// the drain to finish so in-flight responses complete.
	select {
	case err := <-drained:
		if serveErr == nil {
			serveErr = err
		}
	default:
	}
	if *flightrecOut != "" {
		if f, ferr := os.Create(*flightrecOut); ferr == nil {
			_ = rec.WriteJSON(f)
			_ = f.Close()
		}
	}
	return serveErr
}
