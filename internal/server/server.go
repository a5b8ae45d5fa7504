// Package server is the hardened HTTP front end of the compression
// engines — the topozipd daemon. The endpoints stream: request bodies
// spool through bounded readers onto disk, compression output flows
// through the windowed slab pipeline straight into the response, and no
// handler ever materializes a whole field in memory.
//
// The robustness layer, in one place:
//
//   - Admission control: a semaphore sized off the shm worker pool and
//     the -max-mem budget, with a bounded wait queue. Excess load is
//     shed with 429 + Retry-After (see admission.go) — overload makes
//     the daemon fast and honest, not slow and doomed.
//   - Per-request deadlines: every heavy request runs under a context
//     deadline that propagates into the slab pipeline, which aborts at
//     slab admission with a typed context error.
//   - Slow-loris defense: http.MaxBytesReader on every body,
//     read-header/read/write/idle timeouts on the listener.
//   - Panic isolation: a recovered handler panic answers 500, bumps
//     server.panics, records a flight-recorder event, and the daemon
//     keeps serving.
//   - Client-disconnect cancellation: the request context dies with the
//     connection, the pipeline stops admitting slabs, and the admission
//     permit is released promptly.
//   - Graceful drain: Drain flips /healthz to 503, stops accepting,
//     lets in-flight requests finish within the drain deadline, then
//     shuts the listener down.
package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/faultinject"
	"repro/internal/flightrec"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/telemetry"
)

// Config sizes and arms a Server. The zero value serves with conservative
// defaults on every knob.
type Config struct {
	// MaxInflight caps concurrently executing heavy requests
	// (compress/decompress/verify). <= 0 derives it from the worker
	// pool: GOMAXPROCS / WorkersPerRequest, floored at 1, so admitted
	// requests can actually have their workers.
	MaxInflight int
	// Queue bounds how many requests may wait for a permit before the
	// daemon sheds with 429. < 0 means 2 × MaxInflight; 0 means shed
	// immediately when busy.
	Queue int
	// WorkersPerRequest is the shm worker count each admitted request
	// runs with. <= 0 means min(4, GOMAXPROCS).
	WorkersPerRequest int
	// MaxMemBytes is the daemon-wide slab-pipeline memory budget; each
	// admitted request receives MaxMemBytes / MaxInflight as its
	// streaming budget. 0 disables budget sizing (slab counts derive
	// from field shape alone).
	MaxMemBytes int64
	// MaxBodyBytes caps any request body (http.MaxBytesReader);
	// <= 0 means 1 GiB.
	MaxBodyBytes int64
	// RequestTimeout is the per-request deadline; <= 0 means 60s.
	// Clients may shorten (never extend) it with ?deadline_ms=N.
	RequestTimeout time.Duration
	// SpoolDir receives the bounded temp files bodies stream through;
	// "" means os.TempDir().
	SpoolDir string
	// ReadHeaderTimeout, IdleTimeout harden the listener; zero values
	// get 5s and 120s. Read/write timeouts derive from RequestTimeout.
	ReadHeaderTimeout time.Duration
	IdleTimeout       time.Duration

	// Tel and Rec receive the daemon's metrics and anomaly events;
	// either may be nil.
	Tel *telemetry.Collector
	Rec *flightrec.Recorder
	// Faults, when non-nil, injects worker panics into the slab
	// pipeline (soak testing). Production passes nil.
	Faults *faultinject.Injector
}

func (c Config) workersPerRequest() int {
	if c.WorkersPerRequest > 0 {
		return c.WorkersPerRequest
	}
	if n := runtime.GOMAXPROCS(0); n < 4 {
		return n
	}
	return 4
}

func (c Config) maxInflight() int {
	if c.MaxInflight > 0 {
		return c.MaxInflight
	}
	n := pool.Workers(0) / c.workersPerRequest()
	if n < 1 {
		n = 1
	}
	return n
}

func (c Config) queue() int {
	if c.Queue < 0 {
		return 2 * c.maxInflight()
	}
	return c.Queue
}

func (c Config) maxBodyBytes() int64 {
	if c.MaxBodyBytes > 0 {
		return c.MaxBodyBytes
	}
	return 1 << 30
}

func (c Config) requestTimeout() time.Duration {
	if c.RequestTimeout > 0 {
		return c.RequestTimeout
	}
	return 60 * time.Second
}

func (c Config) perRequestMem() int64 {
	if c.MaxMemBytes <= 0 {
		return 0
	}
	m := c.MaxMemBytes / int64(c.maxInflight())
	if m < 1<<20 {
		m = 1 << 20
	}
	return m
}

func (c Config) spoolDir() string {
	if c.SpoolDir != "" {
		return c.SpoolDir
	}
	return os.TempDir()
}

// Server is the daemon. Create with New; serve with Serve; stop with
// Drain (graceful) or Close (abrupt).
type Server struct {
	cfg   Config
	adm   *admission
	mux   *http.ServeMux
	http  *http.Server
	ln    net.Listener
	start time.Time

	drainCh chan struct{} // closed when draining starts
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	s := &Server{
		cfg:     cfg,
		adm:     newAdmission(cfg.maxInflight(), cfg.queue()),
		start:   time.Now(),
		drainCh: make(chan struct{}),
	}
	mux := obs.Handler(obs.Options{Col: cfg.Tel, Rec: cfg.Rec, Start: s.start, Ready: s.Ready})
	mux.HandleFunc("/v1/compress", s.instrument("compress", s.handleCompress))
	mux.HandleFunc("/v1/decompress", s.instrument("decompress", s.handleDecompress))
	mux.HandleFunc("/v1/verify", s.instrument("verify", s.handleVerify))
	mux.HandleFunc("/v1/codecs", s.instrument("codecs", s.handleCodecs))
	s.mux = mux
	rt := cfg.requestTimeout()
	rht := cfg.ReadHeaderTimeout
	if rht <= 0 {
		rht = 5 * time.Second
	}
	idle := cfg.IdleTimeout
	if idle <= 0 {
		idle = 120 * time.Second
	}
	s.http = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: rht,
		// A request must finish reading its body and writing its
		// response within the deadline plus queue-wait headroom; beyond
		// that the connection is a slow-loris hold on a worker slot.
		ReadTimeout:  rt + 30*time.Second,
		WriteTimeout: rt + 30*time.Second,
		IdleTimeout:  idle,
	}
	return s
}

// Handler exposes the daemon's full route tree (the /v1 API plus
// /metrics, /healthz, /debug/*) for in-process tests and embedding.
func (s *Server) Handler() http.Handler { return s.mux }

// Ready reports whether the daemon accepts new work; flips false for
// good once draining starts, which /healthz surfaces as 503.
func (s *Server) Ready() bool {
	select {
	case <-s.drainCh:
		return false
	default:
		return true
	}
}

// draining reports whether Drain has been called.
func (s *Server) draining() bool { return !s.Ready() }

// Serve accepts connections on ln until Drain or Close.
func (s *Server) Serve(ln net.Listener) error {
	s.ln = ln
	err := s.http.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Addr is the bound listen address, "" before Serve.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Drain is the graceful-shutdown state machine: flip readiness (load
// balancers stop routing), stop accepting connections, let in-flight
// requests run to completion, and return when the last one finishes or
// ctx expires — whichever comes first. Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	select {
	case <-s.drainCh:
	default:
		close(s.drainCh)
		s.cfg.Tel.Counter("server.drains").Add(1)
		s.cfg.Rec.Record(flightrec.Event{Kind: flightrec.KindNote, Subsystem: "server",
			Slab: -1, Detail: "drain started"})
	}
	err := s.http.Shutdown(ctx)
	s.cfg.Rec.Record(flightrec.Event{Kind: flightrec.KindNote, Subsystem: "server",
		Slab: -1, Detail: "drain finished"})
	return err
}

// Close abandons in-flight requests and closes the listener.
func (s *Server) Close() error { return s.http.Close() }
