// The /v1 endpoint handlers. Every heavy handler follows the same
// hardened shape, in order: bound the body (http.MaxBytesReader), arm
// the per-request deadline, take an admission permit (or shed with 429),
// spool the body to disk, and stream the answer through the slab
// pipeline — so a request's memory footprint is O(slab window), never
// O(field), and a misbehaving client can only hurt its own request.

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/codec"
	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/flightrec"
	"repro/internal/shm"
)

// respWriter tracks status and body progress so the panic isolator can
// tell "safe to answer 500" from "mid-stream, abort the connection".
type respWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *respWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *respWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.status = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.NewResponseController reach through the wrapper to
// the real connection — without it SetReadDeadline/SetWriteDeadline in
// requestDeadline report ErrNotSupported and the stalled-upload defense
// is silently inert.
func (w *respWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps a handler with the daemon's blast-radius controls:
// per-request panic isolation (a panicking handler answers 500 and the
// daemon keeps serving; mid-stream panics abort just that connection),
// plus request/latency accounting per endpoint.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	reqs := s.cfg.Tel.Counter("server." + name + ".requests")
	lat := s.cfg.Tel.Histogram("server." + name + ".latency_ns")
	panics := s.cfg.Tel.Counter("server.panics")
	return func(w http.ResponseWriter, r *http.Request) {
		rw := &respWriter{ResponseWriter: w}
		t0 := time.Now()
		reqs.Inc()
		defer func() {
			lat.Observe(int64(time.Since(t0)))
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				// Deliberate mid-stream abort (error after first byte);
				// already accounted where it was thrown.
				panic(rec)
			}
			panics.Inc()
			s.cfg.Rec.Record(flightrec.Event{Kind: flightrec.KindPanic, Subsystem: "server." + name,
				Slab: -1, Detail: fmt.Sprintf("recovered: %v", rec)})
			if rw.wrote {
				// Headers are gone; poisoning the connection is the only
				// honest signal left to the client.
				panic(http.ErrAbortHandler)
			}
			writeError(rw, http.StatusInternalServerError, "internal error (recovered panic)")
		}()
		h(rw, r)
	}
}

// limitBody caps the request body at the configured bound; oversized
// bodies surface as *http.MaxBytesError (mapped to 413). Every handler
// that reads a body must call this first — the handlerbound lint check
// enforces it.
func (s *Server) limitBody(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes())
}

// requestDeadline arms the per-request deadline (the second handlerbound
// obligation). Clients may shorten it with ?deadline_ms=N — never extend
// it — and the returned context also dies when the client disconnects,
// so the slab pipeline stops admitting work for dead requests. The same
// deadline lands on the connection itself (ResponseController), so a
// stalled request body — a read the context cannot interrupt — fails at
// the deadline too instead of holding a permit until ReadTimeout.
func (s *Server) requestDeadline(w http.ResponseWriter, r *http.Request) (context.Context, context.CancelFunc) {
	d := s.cfg.requestTimeout()
	if v := r.URL.Query().Get("deadline_ms"); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
			if cd := time.Duration(ms) * time.Millisecond; cd < d {
				d = cd
			}
		}
	}
	rc := http.NewResponseController(w)
	// Reads stop at the compute deadline; writes get headroom beyond it
	// to flush a response already being streamed. Transports without
	// deadlines (in-process tests, fuzzing) report ErrUnsupported; any
	// other failure means the connection deadlines are NOT armed — count
	// it loudly rather than discard it.
	if err := rc.SetReadDeadline(time.Now().Add(d)); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		s.deadlineArmFailed("read", err)
	}
	if err := rc.SetWriteDeadline(time.Now().Add(d + 30*time.Second)); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		s.deadlineArmFailed("write", err)
	}
	return context.WithTimeout(r.Context(), d)
}

// deadlineArmFailed records a connection whose deadline controls could
// not be armed: the request still runs under its context deadline, but
// a stalled body would hold its permit until the listener ReadTimeout.
func (s *Server) deadlineArmFailed(which string, err error) {
	s.cfg.Tel.Counter("server.deadline_arm_errors").Inc()
	s.cfg.Rec.Record(flightrec.Event{Kind: flightrec.KindNote, Subsystem: "server",
		Slab: -1, Detail: fmt.Sprintf("set %s deadline: %v", which, err)})
}

// admit takes an admission permit, mapping saturation to 429 +
// Retry-After and a queued-client death to its cause. Returns a nil
// release func when the request was already answered.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, name string) func() {
	release, err := s.adm.acquire(ctx)
	if err == nil {
		s.cfg.Tel.Gauge("server.inflight").Set(int64(s.adm.busy()))
		return release
	}
	var sat *SaturatedError
	if errors.As(err, &sat) {
		s.cfg.Tel.Counter("server.shed").Inc()
		s.cfg.Rec.Record(flightrec.Event{Kind: flightrec.KindShed, Subsystem: "server." + name,
			Slab: -1, Detail: sat.Error()})
		w.Header().Set("Retry-After", strconv.Itoa(int((sat.RetryAfter+time.Second-1)/time.Second)))
		writeError(w, http.StatusTooManyRequests, sat.Error())
		return nil
	}
	// Died while queued: deadline → 504, client gone → nothing to say.
	s.finishCtxErr(w, name, err)
	return nil
}

// finishCtxErr answers a request killed by its own context.
func (s *Server) finishCtxErr(w http.ResponseWriter, name string, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.cfg.Tel.Counter("server.deadline").Inc()
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
		return
	}
	s.cfg.Tel.Counter("server.client_gone").Inc()
	s.cfg.Rec.Record(flightrec.Event{Kind: flightrec.KindClientGone, Subsystem: "server." + name,
		Slab: -1, Detail: err.Error()})
	// The client is gone; any status we write is for the connection's
	// ghost. Return without writing.
}

// reqParams decodes the query-string compression parameters shared by
// the heavy endpoints.
type reqParams struct {
	format  string
	version int
	dims    []int
	tau     float64
	abs     bool
	spec    string
}

func parseParams(r *http.Request, needDims bool) (reqParams, error) {
	q := r.URL.Query()
	p := reqParams{format: codec.FormatCP, tau: 0.01, spec: q.Get("spec")}
	if f := q.Get("format"); f != "" {
		p.format = f
	}
	if v := q.Get("version"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return p, fmt.Errorf("bad version %q", v)
		}
		p.version = n
	}
	if d := q.Get("dims"); d != "" {
		dims, err := codec.ParseDims(d)
		if err != nil {
			return p, err
		}
		p.dims = dims
	} else if needDims {
		return p, errors.New("missing required dims=NXxNY[xNZ]")
	}
	if t := q.Get("tau"); t != "" {
		v, err := strconv.ParseFloat(t, 64)
		if err != nil {
			return p, fmt.Errorf("bad tau %q", t)
		}
		if err := fixed.CheckParam("tau", v); err != nil {
			return p, err
		}
		if v <= 0 {
			return p, fmt.Errorf("bad tau %q", t)
		}
		p.tau = v
	}
	if a := q.Get("abs"); a != "" {
		v, err := strconv.ParseBool(a)
		if err != nil {
			return p, fmt.Errorf("bad abs %q", a)
		}
		p.abs = v
	}
	return p, nil
}

// paramStatus maps a parseParams error to its status: 422 for a
// well-formed but non-finite parameter (a *fixed.DomainError, like a
// NaN in the body), 400 for anything malformed.
func paramStatus(err error) int {
	var de *fixed.DomainError
	if errors.As(err, &de) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}

// pipelineOpts builds the per-request slab pipeline configuration: the
// request's context (cancellation/deadline), its share of the worker
// pool and memory budget, and the daemon's instrumentation.
func (s *Server) pipelineOpts(ctx context.Context) shm.Options {
	return shm.Options{
		Ctx:         ctx,
		Workers:     s.cfg.workersPerRequest(),
		MaxMemBytes: s.cfg.perRequestMem(),
		Tel:         s.cfg.Tel,
		Rec:         s.cfg.Rec,
		Faults:      s.cfg.Faults,
	}
}

// rawBytes is the exact body size a dims declaration implies, erroring
// when the product overflows int64 — absurd dims parse fine long before
// their byte size is representable, and a wrapped-negative size would
// silently disable the spool's exact-size check.
func rawBytes(dims []int) (int64, error) {
	n := int64(4) * int64(len(dims))
	for _, d := range dims {
		if d <= 0 || int64(d) > math.MaxInt64/n {
			return 0, fmt.Errorf("dims %s imply a byte size beyond int64", dimsString(dims))
		}
		n *= int64(d)
	}
	return n, nil
}

// wantBytes resolves the body size p.dims demands, rejecting — before
// the request takes an admission permit — dims whose product overflows
// (400) or can never fit under the body limit (413).
func (s *Server) wantBytes(w http.ResponseWriter, p reqParams) (int64, bool) {
	n, err := rawBytes(p.dims)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return 0, false
	}
	if max := s.cfg.maxBodyBytes(); n > max {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("dims imply a %d-byte body, over the %d-byte limit", n, max))
		return 0, false
	}
	return n, true
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{msg})
}

// lookupErr maps a codec lookup failure: unknown formats are the
// client's mistake (400), anything else is ours.
func lookupCodec(w http.ResponseWriter, p reqParams) (codec.Codec, bool) {
	c, err := codec.Lookup(p.format, p.version)
	if err != nil {
		var ue *codec.UnknownFormatError
		if errors.As(err, &ue) {
			writeError(w, http.StatusBadRequest, err.Error())
		} else {
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return nil, false
	}
	return c, true
}

// spoolErr answers a failed body spool: size violations are 4xx, a
// network timeout reading the body is the client's stall (408, counted
// apart from server faults), context death maps through finishCtxErr,
// and only the remainder is 500.
func (s *Server) spoolErr(w http.ResponseWriter, name string, err error) {
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("body exceeds %d-byte limit", mbe.Limit))
	case errors.Is(err, errBodySize):
		writeError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// Must precede isTimeout: context.DeadlineExceeded is itself a
		// net.Error with Timeout() true.
		s.finishCtxErr(w, name, err)
	case isTimeout(err):
		// The connection read deadline armed in requestDeadline fired
		// mid-body: a misbehaving client, not a server fault.
		s.cfg.Tel.Counter("server.body_timeout").Inc()
		s.cfg.Rec.Record(flightrec.Event{Kind: flightrec.KindClientGone, Subsystem: "server." + name,
			Slab: -1, Detail: "body read timed out: " + err.Error()})
		writeError(w, http.StatusRequestTimeout, "timed out reading request body")
	default:
		s.cfg.Tel.Counter("server.errors").Inc()
		writeError(w, http.StatusInternalServerError, "spool: "+err.Error())
	}
}

// isTimeout reports a network-deadline error (os.ErrDeadlineExceeded or
// any net.Error with Timeout), the shape a stalled body read produces
// once the connection deadline fires.
func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// handleCompress streams POST body (component-major float32 raw, dims
// from the query) through the registered codec into an archive container
// on the response. Output is byte-identical to the topozip CLI for the
// same field and options.
func (s *Server) handleCompress(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	s.limitBody(w, r)
	ctx, cancel := s.requestDeadline(w, r)
	defer cancel()
	p, err := parseParams(r, true)
	if err != nil {
		writeError(w, paramStatus(err), err.Error())
		return
	}
	c, ok := lookupCodec(w, p)
	if !ok {
		return
	}
	want, ok := s.wantBytes(w, p)
	if !ok {
		return
	}
	release := s.admit(ctx, w, "compress")
	if release == nil {
		return
	}
	defer release()

	sp, err := s.spool(ctx, r.Body, want)
	if err != nil {
		s.spoolErr(w, "compress", err)
		return
	}
	defer sp.Close()
	src, err := field.NewRawSource(sp.f, p.dims...)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Trailer", "X-Topozipd-Raw-Bytes, X-Topozipd-Compressed-Bytes, X-Topozipd-Tau-Abs")
	cw := &countingWriter{w: w}
	res, err := c.Compress(src, cw, codec.Params{
		Dims: p.dims, Tau: p.tau, TauAbsolute: p.abs, Spec: p.spec,
		Pipeline: s.pipelineOpts(ctx),
	})
	if err != nil {
		if cw.n > 0 {
			// The container header is already on the wire; the checksummed
			// v3 footer is missing, so the client's decoder will reject the
			// truncated stream. Kill the connection to make it unmissable.
			s.cfg.Tel.Counter("server.aborted_streams").Inc()
			panic(http.ErrAbortHandler)
		}
		s.compressErr(w, "compress", err)
		return
	}
	w.Header().Set("X-Topozipd-Raw-Bytes", strconv.FormatInt(res.RawBytes, 10))
	w.Header().Set("X-Topozipd-Compressed-Bytes", strconv.FormatInt(res.CompressedBytes, 10))
	w.Header().Set("X-Topozipd-Tau-Abs", strconv.FormatFloat(res.TauAbs, 'g', -1, 64))
}

// compressErr maps a codec error before any bytes hit the wire.
func (s *Server) compressErr(w http.ResponseWriter, name string, err error) {
	var de *fixed.DomainError
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.finishCtxErr(w, name, err)
	case errors.As(err, &de):
		// A NaN or infinity in the uploaded field: the client's payload,
		// well-formed but not compressible.
		writeError(w, http.StatusUnprocessableEntity, err.Error())
	default:
		s.cfg.Tel.Counter("server.errors").Inc()
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// handleDecompress streams a POSTed archive container back out as
// component-major float32 raw. Dims come from the container; the decoded
// shape is reported in X-Topozipd-Dims.
func (s *Server) handleDecompress(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	s.limitBody(w, r)
	ctx, cancel := s.requestDeadline(w, r)
	defer cancel()
	p, err := parseParams(r, false)
	if err != nil {
		writeError(w, paramStatus(err), err.Error())
		return
	}
	c, ok := lookupCodec(w, p)
	if !ok {
		return
	}
	release := s.admit(ctx, w, "decompress")
	if release == nil {
		return
	}
	defer release()

	sp, err := s.spool(ctx, r.Body, -1)
	if err != nil {
		s.spoolErr(w, "decompress", err)
		return
	}
	defer sp.Close()

	// Decode into a second spool file: the streaming decoder writes
	// planes at disjoint offsets concurrently, which a socket can't
	// absorb, and the answer needs a Content-Length anyway.
	out, err := s.newSpool()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	defer out.Close()
	dims, err := c.Decompress(sp.f, sp.size, codec.Params{Dims: p.dims, Pipeline: s.pipelineOpts(ctx)},
		func(dims []int) (shm.PlaneSink, error) { return field.NewRawSink(out.f, dims...) })
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			s.finishCtxErr(w, "decompress", err)
		default:
			// A malformed container is the client's payload problem.
			s.cfg.Tel.Counter("server.errors").Inc()
			writeError(w, http.StatusUnprocessableEntity, err.Error())
		}
		return
	}
	total, err := rawBytes(dims)
	if err != nil {
		// The decoder itself bounds dims; reaching here is our bug.
		s.cfg.Tel.Counter("server.errors").Inc()
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Topozipd-Dims", dimsString(dims))
	w.Header().Set("Content-Length", strconv.FormatInt(total, 10))
	if _, err := io.Copy(w, io.NewSectionReader(out.f, 0, total)); err != nil {
		s.cfg.Tel.Counter("server.client_gone").Inc()
	}
}

// verifyReport is the JSON answer of /v1/verify: the paper's critical-
// point preservation table plus pointwise error metrics for one field.
type verifyReport struct {
	Dims            []int   `json:"dims"`
	TauAbs          float64 `json:"tau_abs"`
	RawBytes        int64   `json:"raw_bytes"`
	CompressedBytes int64   `json:"compressed_bytes"`
	Ratio           float64 `json:"ratio"`
	TP              int     `json:"tp"`
	FP              int     `json:"fp"`
	FN              int     `json:"fn"`
	FT              int     `json:"ft"`
	Preserved       bool    `json:"preserved"`
	MaxAbsError     float64 `json:"max_abs_error"`
	PSNRdB          float64 `json:"psnr_db"`
}

// handleVerify runs the full round trip server-side — compress the
// POSTed raw field, decompress the result, detect critical points on
// both, compare — and answers with the preservation report. The field
// never leaves the daemon, so verification costs one upload.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	s.limitBody(w, r)
	ctx, cancel := s.requestDeadline(w, r)
	defer cancel()
	p, err := parseParams(r, true)
	if err != nil {
		writeError(w, paramStatus(err), err.Error())
		return
	}
	c, ok := lookupCodec(w, p)
	if !ok {
		return
	}
	want, ok := s.wantBytes(w, p)
	if !ok {
		return
	}
	release := s.admit(ctx, w, "verify")
	if release == nil {
		return
	}
	defer release()

	sp, err := s.spool(ctx, r.Body, want)
	if err != nil {
		s.spoolErr(w, "verify", err)
		return
	}
	defer sp.Close()
	src, err := field.NewRawSource(sp.f, p.dims...)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	comp, err := s.newSpool()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	defer comp.Close()
	res, err := c.Compress(src, &writerAtCursor{w: comp.f}, codec.Params{
		Dims: p.dims, Tau: p.tau, TauAbsolute: p.abs, Spec: p.spec,
		Pipeline: s.pipelineOpts(ctx),
	})
	if err != nil {
		s.compressErr(w, "verify", err)
		return
	}
	dec, err := s.newSpool()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	defer dec.Close()
	if _, err := c.Decompress(comp.f, res.CompressedBytes,
		codec.Params{Dims: p.dims, Pipeline: s.pipelineOpts(ctx)},
		func(dims []int) (shm.PlaneSink, error) { return field.NewRawSink(dec.f, dims...) }); err != nil {
		s.compressErr(w, "verify", err)
		return
	}
	decSrc, err := field.NewRawSource(dec.f, p.dims...)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}

	fid, err := analysis.Verify(src, decSrc, 0, 0)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	rep := fid.Report
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(verifyReport{
		Dims: p.dims, TauAbs: res.TauAbs,
		RawBytes: res.RawBytes, CompressedBytes: res.CompressedBytes,
		Ratio: float64(res.RawBytes) / float64(res.CompressedBytes),
		TP:    rep.TP, FP: rep.FP, FN: rep.FN, FT: rep.FT,
		Preserved: rep.Preserved(), MaxAbsError: fid.MaxAbsError, PSNRdB: fid.PSNR,
	})
}

// handleCodecs lists the registry — the client's format negotiation.
func (s *Server) handleCodecs(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Format      string `json:"format"`
		Version     int    `json:"version"`
		Description string `json:"description"`
	}
	keys := codec.Keys()
	out := make([]entry, 0, len(keys))
	for _, k := range keys {
		c, err := codec.Lookup(k.Format, k.Version)
		if err != nil {
			continue
		}
		out = append(out, entry{Format: k.Format, Version: k.Version, Description: c.Describe()})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

func dimsString(dims []int) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = strconv.Itoa(d)
	}
	return strings.Join(parts, "x")
}

// countingWriter counts bytes so error paths know whether the response
// stream has started.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.n += int64(n)
	return n, err
}

// writerAtCursor adapts an io.WriterAt (a spool file) to the sequential
// io.Writer the compress pipeline streams into.
type writerAtCursor struct {
	w   io.WriterAt
	off int64
}

func (c *writerAtCursor) Write(b []byte) (int, error) {
	n, err := c.w.WriteAt(b, c.off)
	c.off += int64(n)
	return n, err
}
