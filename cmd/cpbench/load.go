// The `cpbench load` subcommand: a closed-loop load generator for the
// topozipd daemon. It drives N concurrent clients through a weighted
// compress/decompress/verify request mix at several concurrency levels,
// measures latency percentiles and the shed rate, and optionally injects
// client-side network faults (slow writes, mid-body disconnects,
// stalls) to prove the daemon degrades by shedding — never by hanging,
// crashing, or corrupting an answer.
//
// With no -addr it boots an in-process daemon sized by -inflight/-queue,
// so `make loadgate` is hermetic. With -gate it enforces the service-
// level floor: zero non-shed errors everywhere, bounded p99 when the
// daemon is not oversubscribed, and actual shedding (not queue collapse)
// at the overload level.

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/field"
	"repro/internal/flightrec"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// loadLevel is the measured outcome of one concurrency level.
type loadLevel struct {
	Clients    int     `json:"clients"`
	Requests   int     `json:"requests"`
	OK         int     `json:"ok"`
	Shed       int     `json:"shed"`
	Errors     int     `json:"errors"`
	ShedRate   float64 `json:"shed_rate"`
	P50Ms      float64 `json:"p50_ms"`
	P90Ms      float64 `json:"p90_ms"`
	P99Ms      float64 `json:"p99_ms"`
	P999Ms     float64 `json:"p999_ms"`
	WallS      float64 `json:"wall_s"`
	Throughput float64 `json:"throughput_rps"`
}

// loadReport is the JSON snapshot (results/BENCH_pr9_load.json).
type loadReport struct {
	Dims     string      `json:"dims"`
	Tau      float64     `json:"tau"`
	Mix      string      `json:"mix"`
	Inflight int         `json:"inflight"`
	Queue    int         `json:"queue"`
	Faults   string      `json:"faults,omitempty"`
	Levels   []loadLevel `json:"levels"`
}

func runLoad(args []string, w io.Writer) (failed bool, err error) {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	addr := fs.String("addr", "", "target daemon address; empty boots an in-process topozipd")
	dims := fs.String("dims", "96x96", "field dims for generated request payloads (NXxNY)")
	tau := fs.Float64("tau", 0.01, "range-relative error bound")
	spec := fs.String("spec", "ST1", "speculation target")
	clients := fs.String("clients", "2,8,32", "comma-separated concurrency levels")
	requests := fs.Int("requests", 48, "requests per concurrency level")
	mix := fs.String("mix", "6:2:2", "compress:decompress:verify request weights")
	inflight := fs.Int("inflight", 4, "in-process daemon: max concurrent heavy requests")
	queue := fs.Int("queue", 4, "in-process daemon: admission queue length")
	faults := fs.String("faults", "", "client-side fault spec, e.g. seed=7,slowclient=0.2,disconnect=0.1,stall=0.1")
	out := fs.String("out", "", "write the JSON load snapshot here")
	gate := fs.Bool("gate", false, "exit nonzero when the service-level floor is violated")
	maxP99 := fs.Float64("max-p99-ms", 30000, "gate: p99 ceiling (ms) at non-oversubscribed levels")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	nx, ny := 0, 0
	if _, err := fmt.Sscanf(*dims, "%dx%d", &nx, &ny); err != nil {
		return false, fmt.Errorf("bad -dims: %w", err)
	}
	weights, err := parseMix(*mix)
	if err != nil {
		return false, err
	}
	levels, err := parseLevels(*clients)
	if err != nil {
		return false, err
	}
	inj, err := faultinject.Parse(*faults)
	if err != nil {
		return false, err
	}

	// Request payloads: one raw field and one container, shared by every
	// client (bodies are read-only).
	f := datagen.Ocean(nx, ny)
	var rawBuf bytes.Buffer
	if err := field.WriteRaw(&rawBuf, f.U, f.V); err != nil {
		return false, err
	}
	raw := rawBuf.Bytes()
	c, err := codec.Lookup(codec.FormatCP, 0)
	if err != nil {
		return false, err
	}
	var contBuf bytes.Buffer
	if _, err := c.Compress(field.MemOf(f.Dims(), f.Components()), &contBuf, codec.Params{Tau: *tau, Spec: *spec}); err != nil {
		return false, err
	}
	container := contBuf.Bytes()

	base := *addr
	if base == "" {
		tel := telemetry.New()
		srv := server.New(server.Config{
			MaxInflight: *inflight, Queue: *queue,
			Tel: tel, Rec: flightrec.New(0),
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return false, err
		}
		go srv.Serve(ln)
		defer srv.Close()
		base = ln.Addr().String()
	}
	baseURL := "http://" + base
	q := fmt.Sprintf("dims=%dx%d&tau=%g&spec=%s", nx, ny, *tau, *spec)
	targets := []string{
		baseURL + "/v1/compress?" + q,
		baseURL + "/v1/decompress",
		baseURL + "/v1/verify?" + q,
	}
	bodies := [][]byte{raw, container, raw}

	report := loadReport{
		Dims: *dims, Tau: *tau, Mix: *mix,
		Inflight: *inflight, Queue: *queue, Faults: *faults,
	}
	client := &http.Client{Timeout: 2 * time.Minute}
	for _, n := range levels {
		lv, err := runLoadLevel(client, n, *requests, weights, targets, bodies, inj)
		if err != nil {
			return false, err
		}
		report.Levels = append(report.Levels, lv)
		fmt.Fprintf(w, "clients=%-3d requests=%-4d ok=%-4d shed=%-4d errors=%-3d p50=%.1fms p99=%.1fms shed-rate=%.2f %.1f req/s\n",
			lv.Clients, lv.Requests, lv.OK, lv.Shed, lv.Errors, lv.P50Ms, lv.P99Ms, lv.ShedRate, lv.Throughput)
	}

	// The daemon must come out of the gauntlet alive and ready.
	hz, err := client.Get(baseURL + "/healthz")
	if err != nil {
		return true, fmt.Errorf("daemon unreachable after load: %w", err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		return true, fmt.Errorf("daemon unhealthy after load: %d", hz.StatusCode)
	}

	if *out != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			return false, err
		}
		fmt.Fprintf(w, "snapshot written to %s\n", *out)
	}

	if !*gate {
		return false, nil
	}
	return gateLoad(w, report, *inflight, *queue, *maxP99, *faults != ""), nil
}

// gateLoad enforces the service-level floor over a finished report.
func gateLoad(w io.Writer, rep loadReport, inflight, queue int, maxP99 float64, faulty bool) (failed bool) {
	sawOverload := false
	for _, lv := range rep.Levels {
		// Non-shed errors are never acceptable — except under client-side
		// fault injection, where the generator's own disconnects and
		// stalls count as client errors by design.
		if lv.Errors > 0 && !faulty {
			fmt.Fprintf(w, "GATE FAIL: %d non-shed errors at %d clients\n", lv.Errors, lv.Clients)
			failed = true
		}
		if lv.Clients <= inflight+queue {
			if lv.P99Ms > maxP99 {
				fmt.Fprintf(w, "GATE FAIL: p99 %.1fms > %.1fms at %d clients\n", lv.P99Ms, maxP99, lv.Clients)
				failed = true
			}
		} else {
			sawOverload = true
			// Past saturation the daemon must shed — an overloaded run
			// with zero 429s means requests piled up somewhere unbounded.
			if lv.Shed == 0 {
				fmt.Fprintf(w, "GATE FAIL: no shedding at %d clients (inflight=%d queue=%d)\n",
					lv.Clients, inflight, queue)
				failed = true
			}
		}
	}
	if !sawOverload {
		fmt.Fprintf(w, "GATE WARN: no level oversubscribed the daemon; shed behavior unexercised\n")
	}
	if !failed {
		fmt.Fprintln(w, "load gate passed")
	}
	return failed
}

func runLoadLevel(client *http.Client, clients, requests int, weights [3]int,
	targets []string, bodies [][]byte, inj *faultinject.Injector) (loadLevel, error) {

	lv := loadLevel{Clients: clients, Requests: requests}
	latencies := make([]time.Duration, requests)
	outcomes := make([]int, requests) // 0 ok, 1 shed, 2 error
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		for i := 0; i < requests; i++ {
			next <- i
		}
		close(next)
	}()
	start := time.Now()
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for seq := range next {
				kind := pickKind(seq, weights)
				t0 := time.Now()
				code, err := oneRequest(client, targets[kind], bodies[kind], uint64(seq), inj)
				latencies[seq] = time.Since(t0)
				switch {
				case err == nil && code == http.StatusOK:
					outcomes[seq] = 0
				case err == nil && code == http.StatusTooManyRequests:
					outcomes[seq] = 1
				default:
					outcomes[seq] = 2
				}
			}
		}()
	}
	wg.Wait()
	lv.WallS = time.Since(start).Seconds()

	var okLat []time.Duration
	for i, o := range outcomes {
		switch o {
		case 0:
			lv.OK++
			okLat = append(okLat, latencies[i])
		case 1:
			lv.Shed++
		default:
			lv.Errors++
		}
	}
	lv.ShedRate = float64(lv.Shed) / float64(requests)
	lv.Throughput = float64(lv.OK) / lv.WallS
	sort.Slice(okLat, func(i, j int) bool { return okLat[i] < okLat[j] })
	lv.P50Ms = pctMs(okLat, 0.50)
	lv.P90Ms = pctMs(okLat, 0.90)
	lv.P99Ms = pctMs(okLat, 0.99)
	lv.P999Ms = pctMs(okLat, 0.999)
	return lv, nil
}

// oneRequest issues one POST, optionally perturbed by client-side fault
// injection, and returns the status code.
func oneRequest(client *http.Client, url string, body []byte, seq uint64,
	inj *faultinject.Injector) (int, error) {

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rd io.Reader = bytes.NewReader(body)
	contentLength := int64(len(body))
	switch {
	case inj.Maybe(faultinject.KindSlowClient, seq):
		rd = &slowReader{r: rd, chunk: 4 << 10, delay: inj.FaultDelay() / 16}
	case inj.Maybe(faultinject.KindDisconnect, seq):
		// Send half the body, then kill the request mid-stream.
		rd = io.LimitReader(rd, contentLength/2)
		go func() {
			time.Sleep(inj.FaultDelay())
			cancel()
		}()
	case inj.Maybe(faultinject.KindStall, seq):
		rd = &stallReader{r: rd, after: contentLength / 2, stall: inj.FaultDelay()}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, rd)
	if err != nil {
		return 0, err
	}
	req.ContentLength = contentLength
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// slowReader trickles the body out in small delayed chunks.
type slowReader struct {
	r     io.Reader
	chunk int
	delay time.Duration
}

func (s *slowReader) Read(p []byte) (int, error) {
	if len(p) > s.chunk {
		p = p[:s.chunk]
	}
	time.Sleep(s.delay)
	return s.r.Read(p)
}

// stallReader sends the first half, freezes once, then finishes.
type stallReader struct {
	r       io.Reader
	after   int64
	stall   time.Duration
	sent    int64
	stalled bool
}

func (s *stallReader) Read(p []byte) (int, error) {
	if !s.stalled && s.sent >= s.after {
		s.stalled = true
		time.Sleep(s.stall)
	}
	n, err := s.r.Read(p)
	s.sent += int64(n)
	return n, err
}

// pickKind maps a request sequence number onto the weighted mix,
// deterministically (no RNG: runs are reproducible).
func pickKind(seq int, weights [3]int) int {
	total := weights[0] + weights[1] + weights[2]
	slot := seq % total
	if slot < weights[0] {
		return 0
	}
	if slot < weights[0]+weights[1] {
		return 1
	}
	return 2
}

func parseMix(s string) ([3]int, error) {
	var w [3]int
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return w, fmt.Errorf("bad -mix %q: want compress:decompress:verify", s)
	}
	total := 0
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return w, fmt.Errorf("bad -mix %q", s)
		}
		w[i] = v
		total += v
	}
	if total == 0 {
		return w, fmt.Errorf("bad -mix %q: all weights zero", s)
	}
	return w, nil
}

func parseLevels(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad -clients %q", s)
		}
		out = append(out, v)
	}
	return out, nil
}

func pctMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}
