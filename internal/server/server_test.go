// The daemon's robustness contract, exercised over real TCP under
// -race: byte-identical answers vs the CLI pipeline, load shedding at
// saturation, graceful drain completing in-flight work, stalled and
// disconnecting clients, worker panics — and the daemon alive and
// leak-free after all of it.

package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/field"
	"repro/internal/flightrec"
	"repro/internal/shm"
	"repro/internal/telemetry"
)

// startServer runs a daemon on a loopback port and tears it down with
// the test.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.SpoolDir == "" {
		cfg.SpoolDir = t.TempDir()
	}
	srv := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, "http://" + ln.Addr().String()
}

// oceanRaw renders the ocean test field in the component-major raw
// layout the endpoints speak.
func oceanRaw(t *testing.T, nx, ny int) []byte {
	t.Helper()
	f := datagen.Ocean(nx, ny)
	var buf bytes.Buffer
	if err := field.WriteRaw(&buf, f.U, f.V); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// seriesBody packs two whole 16×16 fields into one container: a time
// series, whose steps /v1/decompress must not stack into one field.
func seriesBody(t *testing.T) []byte {
	t.Helper()
	f := datagen.Ocean(16, 16)
	var buf bytes.Buffer
	sw := archive.NewStreamWriter(&buf)
	for s := 0; s < 2; s++ {
		blob, _, err := core.Compress(f.Dims(), f.Components(), core.Options{Tau: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sw.AppendBlob(blob); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postBytes(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// The service answer must be byte-identical to the CLI's out-of-core
// path — same container for the same field and options.
func TestCompressByteIdenticalToCLI(t *testing.T) {
	_, base := startServer(t, Config{})
	raw := oceanRaw(t, 64, 48)
	resp, got := postBytes(t, base+"/v1/compress?dims=64x48&tau=0.01&spec=ST1", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}

	c, err := codec.Lookup(codec.FormatCP, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	f := datagen.Ocean(64, 48)
	if _, err := c.Compress(field.Mem2D(f), &want, codec.Params{Tau: 0.01, Spec: "ST1"}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("daemon container (%d bytes) differs from pipeline output (%d bytes)",
			len(got), want.Len())
	}
	if resp.Trailer.Get("X-Topozipd-Compressed-Bytes") == "" {
		t.Error("missing compressed-bytes trailer")
	}
}

func TestRoundTripDecompress(t *testing.T) {
	_, base := startServer(t, Config{})
	raw := oceanRaw(t, 48, 40)
	resp, container := postBytes(t, base+"/v1/compress?dims=48x40&tau=0.01", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress status %d", resp.StatusCode)
	}
	resp, dec := postBytes(t, base+"/v1/decompress", container)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress status %d: %s", resp.StatusCode, dec)
	}
	if d := resp.Header.Get("X-Topozipd-Dims"); d != "48x40" {
		t.Fatalf("dims header %q", d)
	}
	if len(dec) != len(raw) {
		t.Fatalf("decoded %d bytes, want %d", len(dec), len(raw))
	}
	// The streamed answer must match an in-memory decode of the same
	// container bit for bit.
	ref := field.NewField2D(48, 40)
	if err := shm.Decompress(container, 1, field.Mem2D(ref)); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := field.WriteRaw(&want, ref.U, ref.V); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, want.Bytes()) {
		t.Fatal("streamed decompression diverges from in-memory decode")
	}
}

func TestVerifyEndpoint(t *testing.T) {
	_, base := startServer(t, Config{})
	raw := oceanRaw(t, 64, 48)
	resp, body := postBytes(t, base+"/v1/verify?dims=64x48&tau=0.01&spec=ST2", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rep struct {
		Preserved       bool    `json:"preserved"`
		TP              int     `json:"tp"`
		Ratio           float64 `json:"ratio"`
		CompressedBytes int64   `json:"compressed_bytes"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
	if !rep.Preserved {
		t.Error("codec must preserve critical points")
	}
	if rep.CompressedBytes <= 0 || rep.Ratio <= 1 {
		t.Errorf("implausible report: %+v", rep)
	}
}

func TestBadRequests(t *testing.T) {
	_, base := startServer(t, Config{})
	raw := oceanRaw(t, 16, 16)
	for _, tc := range []struct {
		name, url string
		body      []byte
		want      int
	}{
		{"missing dims", base + "/v1/compress", raw, http.StatusBadRequest},
		{"bad dims", base + "/v1/compress?dims=16xfrog", raw, http.StatusBadRequest},
		{"body/dims mismatch", base + "/v1/compress?dims=64x64", raw, http.StatusBadRequest},
		{"unknown format", base + "/v1/compress?dims=16x16&format=nope", raw, http.StatusBadRequest},
		{"bad tau", base + "/v1/compress?dims=16x16&tau=-1", raw, http.StatusBadRequest},
		{"overflowing dims", base + "/v1/compress?dims=2000000000x2000000000x2000000000", raw, http.StatusBadRequest},
		{"dims over body limit", base + "/v1/compress?dims=20000x20000", raw, http.StatusRequestEntityTooLarge},
		{"garbage container", base + "/v1/decompress", []byte("not an archive"), http.StatusUnprocessableEntity},
		{"series container", base + "/v1/decompress", seriesBody(t), http.StatusUnprocessableEntity},
		{"empty body", base + "/v1/decompress", nil, http.StatusBadRequest},
	} {
		resp, body := postBytes(t, tc.url, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
	}
	resp, err := http.Get(base + "/v1/compress")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET compress: status %d", resp.StatusCode)
	}
}

// TestNonFiniteInput: a NaN or infinity in an uploaded field is a
// well-formed but uncompressible payload — 422 from compress and verify,
// not a 500 and never a "successful" container.
func TestNonFiniteInput(t *testing.T) {
	tel := telemetry.New()
	_, base := startServer(t, Config{Tel: tel})
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1))} {
		raw := oceanRaw(t, 16, 16)
		binary.LittleEndian.PutUint32(raw[4*37:], math.Float32bits(bad))
		for _, ep := range []string{"compress", "verify"} {
			resp, body := postBytes(t, base+"/v1/"+ep+"?dims=16x16", raw)
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Errorf("%v %s: status %d want 422 (%s)", bad, ep, resp.StatusCode, body)
			}
			if !strings.Contains(string(body), "index 37") {
				t.Errorf("%v %s: error does not name the offending index: %s", bad, ep, body)
			}
		}
	}
	if n := tel.Counter("server.errors").Value(); n != 0 {
		t.Errorf("server.errors = %d after client payload errors", n)
	}
}

// TestNonFiniteTau: a NaN or infinite ?tau= parses as a float but no
// bound derives from it — 422 naming the parameter from compress and
// verify, like a non-finite body value, never a lossless "success".
func TestNonFiniteTau(t *testing.T) {
	tel := telemetry.New()
	_, base := startServer(t, Config{Tel: tel})
	raw := oceanRaw(t, 16, 16)
	for _, tau := range []string{"NaN", "Inf", "-Inf"} {
		for _, ep := range []string{"compress", "verify"} {
			resp, body := postBytes(t, base+"/v1/"+ep+"?dims=16x16&abs=true&tau="+tau, raw)
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Errorf("tau=%s %s: status %d want 422 (%s)", tau, ep, resp.StatusCode, body)
			}
			if !strings.Contains(string(body), "non-finite tau") {
				t.Errorf("tau=%s %s: error does not name the parameter: %s", tau, ep, body)
			}
		}
	}
	if n := tel.Counter("server.errors").Value(); n != 0 {
		t.Errorf("server.errors = %d after client parameter errors", n)
	}
}

func TestBodyTooLarge(t *testing.T) {
	_, base := startServer(t, Config{MaxBodyBytes: 1 << 10})
	raw := oceanRaw(t, 64, 64)
	resp, _ := postBytes(t, base+"/v1/compress?dims=64x64", raw)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// At saturation the daemon sheds with 429 + Retry-After, never hangs.
func TestShedAtSaturation(t *testing.T) {
	tel := telemetry.New()
	srv, base := startServer(t, Config{MaxInflight: 1, Queue: 0, Tel: tel})
	release, err := srv.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	raw := oceanRaw(t, 16, 16)
	resp, body := postBytes(t, base+"/v1/compress?dims=16x16", raw)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d want 429 (%s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After %q", ra)
	}
	if n := tel.Counter("server.shed").Value(); n != 1 {
		t.Fatalf("server.shed = %d", n)
	}
	// With a free queue slot the same request waits instead of shedding.
	srv2, base2 := startServer(t, Config{MaxInflight: 1, Queue: 4})
	release2, err := srv2.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan int, 1)
	go func() {
		resp, _ := postBytes(t, base2+"/v1/compress?dims=16x16", raw)
		got <- resp.StatusCode
	}()
	select {
	case code := <-got:
		t.Fatalf("request finished with %d while the permit was held", code)
	case <-time.After(200 * time.Millisecond):
	}
	release2()
	if code := <-got; code != http.StatusOK {
		t.Fatalf("queued request got %d", code)
	}
}

// A client that sends headers and then stalls its body must be cut off
// near the 300ms request deadline — answered 408 (or the connection
// killed) and its permit released — never held until the listener
// ReadTimeout 30+ seconds later. The elapsed-time bound is the teeth:
// the client-side read deadline (10s) can't satisfy it.
func TestStalledClientBody(t *testing.T) {
	tel := telemetry.New()
	srv, base := startServer(t, Config{RequestTimeout: 300 * time.Millisecond, Tel: tel})
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	fmt.Fprintf(conn, "POST /v1/compress?dims=64x64 HTTP/1.1\r\nHost: x\r\nContent-Length: 32768\r\n\r\n")
	// Send a token amount, then stall until the server reacts.
	conn.Write(make([]byte, 128))
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	reply, _ := io.ReadAll(conn)
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("stalled request held the connection %v; want cutoff near the 300ms deadline", elapsed)
	}
	if len(reply) > 0 && !strings.Contains(string(reply), " 408 ") {
		t.Fatalf("stalled client got %q, want 408", firstLine(reply))
	}
	if n := tel.Counter("server.body_timeout").Value(); n != 1 {
		t.Errorf("server.body_timeout = %d, want 1", n)
	}
	if n := tel.Counter("server.errors").Value(); n != 0 {
		t.Errorf("client stall counted as server error (server.errors = %d)", n)
	}
	waitPermitsReleased(t, srv)
}

// waitPermitsReleased blocks until the admission gauge drains, failing
// the test if a permit outlives its request.
func waitPermitsReleased(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.adm.busy() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("admission permit not released")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func firstLine(b []byte) string {
	s := string(b)
	if i := strings.IndexByte(s, '\r'); i >= 0 {
		return s[:i]
	}
	return s
}

// A client disconnecting mid-response must release its permit promptly.
func TestClientDisconnectReleasesPermit(t *testing.T) {
	srv, base := startServer(t, Config{MaxInflight: 1, Queue: 0})
	raw := oceanRaw(t, 256, 256)
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
		base+"/v1/compress?dims=256x256", bytes.NewReader(raw))
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	// Kill the client as soon as the request is in flight.
	time.Sleep(20 * time.Millisecond)
	cancel()
	waitPermitsReleased(t, srv)
	// And the daemon still serves.
	resp, _ := postBytes(t, base+"/v1/compress?dims=16x16", oceanRaw(t, 16, 16))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon unhealthy after disconnect: %d", resp.StatusCode)
	}
}

// Injected worker panics must never kill the daemon. The slab pipeline
// recovers each panic and degrades the slab to the lossless escape — so
// even under panic=1 the request succeeds (degraded) and the decoded
// bytes are exact.
func TestWorkerPanicIsolated(t *testing.T) {
	inj, err := faultinject.Parse("seed=7,panic=1")
	if err != nil {
		t.Fatal(err)
	}
	rec := flightrec.New(0)
	_, base := startServer(t, Config{Faults: inj, Rec: rec})
	raw := oceanRaw(t, 64, 64)
	resp, container := postBytes(t, base+"/v1/compress?dims=64x64", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d under panic injection", resp.StatusCode)
	}
	if inj.Fired(faultinject.KindPanic) == 0 {
		t.Fatal("injector never fired; the test proved nothing")
	}
	// The container from the panicking run must still decode cleanly
	// (topology preservation of the escape path is pinned down by the
	// shm fault tests).
	if err := shm.Decompress(container, 1, field.Mem2D(field.NewField2D(64, 64))); err != nil {
		t.Fatalf("container from panicking run is corrupt: %v", err)
	}
	hz, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("daemon dead after worker panics: %v", err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d after worker panics", hz.StatusCode)
	}
}

// A panic escaping a handler itself (not a pipeline worker) answers 500
// without killing the daemon — and aborts the connection instead when
// the response stream already started.
func TestHandlerPanicIsolated(t *testing.T) {
	tel := telemetry.New()
	srv := New(Config{Tel: tel, SpoolDir: t.TempDir()})
	h := srv.instrument("boom", func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	})
	req, _ := http.NewRequest(http.MethodGet, "/v1/boom", nil)
	rw := newRecorder()
	h(rw, req)
	if rw.code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rw.code)
	}
	if n := tel.Counter("server.panics").Value(); n != 1 {
		t.Fatalf("server.panics = %d", n)
	}
	mid := srv.instrument("boom2", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("partial"))
		panic("mid-stream bug")
	})
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Fatal("mid-stream panic must abort the connection")
		}
	}()
	mid(newRecorder(), req)
}

// Drain: readiness flips, the listener closes, and an in-flight request
// whose body is still arriving completes byte-identically.
func TestGracefulDrain(t *testing.T) {
	srv, base := startServer(t, Config{})
	raw := oceanRaw(t, 64, 48)

	pr, pw := io.Pipe()
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/compress?dims=64x48&tau=0.01", pr)
	req.ContentLength = int64(len(raw))
	type result struct {
		resp *http.Response
		body []byte
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			got <- result{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		got <- result{resp: resp, body: body, err: err}
	}()
	// First half of the body, then drain starts while we hold the rest.
	if _, err := pw.Write(raw[:len(raw)/2]); err != nil {
		t.Fatal(err)
	}
	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- srv.Drain(ctx)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for srv.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("readiness never flipped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// New connections are refused once the listener is down.
	newConnDeadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := http.Get(base + "/healthz"); err != nil {
			break
		}
		if time.Now().After(newConnDeadline) {
			t.Fatal("listener still accepting after drain")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Finish the in-flight upload; the admitted request must complete.
	if _, err := pw.Write(raw[len(raw)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	res := <-got
	if res.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", res.err)
	}
	if res.resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request got %d", res.resp.StatusCode)
	}
	c, _ := codec.Lookup(codec.FormatCP, 0)
	var want bytes.Buffer
	if _, err := c.Compress(field.Mem2D(datagen.Ocean(64, 48)), &want, codec.Params{Tau: 0.01}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.body, want.Bytes()) {
		t.Fatal("in-flight response not byte-identical after drain")
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestHealthzReportsDraining(t *testing.T) {
	srv := New(Config{SpoolDir: t.TempDir()})
	get := func() (int, map[string]any) {
		req, _ := http.NewRequest(http.MethodGet, "/healthz", nil)
		rw := newRecorder()
		srv.Handler().ServeHTTP(rw, req)
		var m map[string]any
		json.Unmarshal(rw.buf.Bytes(), &m)
		return rw.code, m
	}
	if code, m := get(); code != http.StatusOK || m["ok"] != true {
		t.Fatalf("pre-drain healthz: %d %v", code, m)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	srv.Drain(ctx)
	if code, m := get(); code != http.StatusServiceUnavailable || m["draining"] != true {
		t.Fatalf("draining healthz: %d %v", code, m)
	}
}

// The full fault gauntlet must leave no goroutines behind.
func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		srv, base := startServer(t, Config{MaxInflight: 2, Queue: 1})
		raw := oceanRaw(t, 48, 48)
		for i := 0; i < 8; i++ {
			resp, _ := postBytes(t, base+"/v1/compress?dims=48x48", raw)
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("request %d: status %d", i, resp.StatusCode)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(),
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// recorder is a minimal ResponseWriter for in-process handler tests
// (keeps net/http/httptest out of the non-test dependency surface).
type recorder struct {
	hdr  http.Header
	buf  bytes.Buffer
	code int
}

func newRecorder() *recorder { return &recorder{hdr: http.Header{}, code: http.StatusOK} }

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(b []byte) (int, error) { return r.buf.Write(b) }
