package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/cp"
	"repro/internal/datagen"
	"repro/internal/field"
	"repro/internal/fixed"
	"repro/internal/flightrec"
	"repro/internal/server"
	"repro/internal/shm"
	"repro/internal/telemetry"
)

// Request mix and load of topozipd-mix. The open loop models independent
// users arriving at a seeded Poisson rate; the closed loop two callers
// that each wait for their reply. The client never opens more than
// maxConns connections, so requests beyond that queue in the client and
// their latency, timed from when they were due, shows the queueing.
//
// None of the traffic is taken from a real deployment: the 6:2:2 mix is
// the default of `cpbench load -mix`, the 128² ST1 body is one fixed
// size, and the rate is about two thirds of the closed-loop capacity
// (61–68 req/s on the 2-core host the benchmark was defined on), so
// requests overlap and queue behind admission. They are assumptions.
const (
	serviceRate    = 40.0 // open-loop arrivals per second
	maxConns       = 2
	capacityLimit  = 250 * time.Millisecond
	serviceSpec    = "ST1"
	codecRounds    = 8  // direct codec calls of the traced run, half traced
	closedSlices   = 10 // the lone-caller and two-caller loops alternate this often
	kindCompress   = 0
	kindDecompress = 1
	kindVerify     = 2
)

var kindNames = [3]string{"compress", "decompress", "verify"}

// mixPattern spreads the 6:2:2 compress:decompress:verify mix evenly over
// every ten requests.
var mixPattern = [10]int{0, 0, 1, 0, 2, 0, 0, 1, 0, 2}

type serviceCase struct {
	dir       string
	srv       *server.Server
	served    chan error
	col       *telemetry.Collector
	transport *http.Transport
	client    *http.Client
	base      string
	query     string

	f         *field.Field2D
	raw       []byte // compress and verify request body
	container []byte // the direct codec output every compress response must equal
	decoded   []byte // the raw field every decompress response must equal
	params    codec.Params
	tr        fixed.Transform
	tauAbs    float64
	ref       []cp.Point
}

func setupService(m *meter) (instance, error) {
	n := 128
	if m.cfg.quick {
		n = 32
	}
	f := gen2D(m.cfg.seed, n, n, datagen.Ocean)
	sc := &serviceCase{
		dir: filepath.Join(m.dir, "topozipd-mix"), f: f,
		query: fmt.Sprintf("dims=%dx%d&tau=%g&spec=%s", n, n, relTau, serviceSpec),
		// No memory budget, like the daemon's default, so the slab count
		// and the bytes match its responses; workers never change bytes.
		params: codec.Params{Dims: []int{n, n}, Tau: relTau, Spec: serviceSpec,
			Pipeline: shm.Options{Workers: streamWorkers}},
	}
	var buf bytes.Buffer
	if err := field.WriteRaw(&buf, f.U, f.V); err != nil {
		return nil, err
	}
	sc.raw = buf.Bytes()
	c, err := codec.Lookup(codec.FormatCP, 0)
	if err != nil {
		return nil, err
	}
	buf = bytes.Buffer{}
	res, err := c.Compress(field.Mem2D(f), &buf, sc.params)
	if err != nil {
		return nil, err
	}
	sc.container, sc.tauAbs = buf.Bytes(), res.TauAbs
	var g memField
	if _, err := c.Decompress(bytes.NewReader(sc.container), int64(len(sc.container)), codec.Params{Dims: sc.params.Dims}, memSinkFor(&g)); err != nil {
		return nil, err
	}
	buf = bytes.Buffer{}
	if err := field.WriteRaw(&buf, g.comps()...); err != nil {
		return nil, err
	}
	sc.decoded = buf.Bytes()
	if sc.tr, err = fixed.Fit(f.U, f.V); err != nil {
		return nil, err
	}
	sc.ref = cp.DetectField2D(f, sc.tr)
	if err := checkPreserved(sc.ref, g.detect(sc.tr), f.Components(), g.comps(), sc.tauAbs); err != nil {
		return nil, fmt.Errorf("reference decode: %w", err)
	}
	if err := sc.start(); err != nil {
		return nil, err
	}
	// Warm-up op: one request of each kind.
	for k := range kindNames {
		if o := sc.request(context.Background(), k, time.Now(), nil); o.err != nil {
			sc.close()
			return nil, fmt.Errorf("warm-up %s: %w", kindNames[k], o.err)
		}
	}
	return sc, nil
}

// start boots an in-process daemon with the cmd/topozipd defaults
// (derived inflight, queue 2× inflight, telemetry and flight recorder
// on), spooling under the benchmark's work directory.
func (sc *serviceCase) start() error {
	spool := filepath.Join(sc.dir, "spool")
	if err := os.MkdirAll(spool, 0o755); err != nil {
		return err
	}
	sc.col = telemetry.New()
	sc.srv = server.New(server.Config{Queue: -1, SpoolDir: spool, Tel: sc.col, Rec: flightrec.New(0)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	sc.served = make(chan error, 1)
	go func() { sc.served <- sc.srv.Serve(ln) }()
	sc.base = "http://" + ln.Addr().String()
	sc.transport = &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true}
	sc.client = &http.Client{Transport: sc.transport, Timeout: time.Minute}
	return nil
}

func (sc *serviceCase) close() error {
	var err error
	if sc.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = sc.srv.Drain(ctx)
		cancel()
		if serr := <-sc.served; err == nil {
			err = serr
		}
		sc.transport.CloseIdleConnections()
	}
	if rerr := os.RemoveAll(sc.dir); err == nil {
		err = rerr
	}
	return err
}

// outcome is one request as the client saw it.
type outcome struct {
	kind int
	due  time.Time // when the schedule said to send it
	sent time.Time // when the client issued it
	done time.Time
	err  error
}

func (o outcome) fromDue() time.Duration  { return o.done.Sub(o.due) }
func (o outcome) fromSent() time.Duration { return o.done.Sub(o.sent) }

// request sends one request of the given kind and checks the answer: a
// compress response must equal the direct codec output byte for byte, a
// decompress response the reference decode, and a verify response must
// report every critical point preserved within the error bound. When col
// is non-nil the call is wrapped in a benchmark span.
func (sc *serviceCase) request(ctx context.Context, kind int, due time.Time, col *telemetry.Collector) outcome {
	o := outcome{kind: kind, due: due, sent: time.Now()}
	sp := col.Span("bench.request." + kindNames[kind])
	body, err := sc.post(ctx, kind)
	sp.End()
	o.done = time.Now()
	if err == nil {
		err = sc.checkAnswer(kind, body)
	}
	o.err = err
	return o
}

func (sc *serviceCase) post(ctx context.Context, kind int) ([]byte, error) {
	url, body := sc.base+"/v1/compress?"+sc.query, sc.raw
	switch kind {
	case kindDecompress:
		url, body = sc.base+"/v1/decompress", sc.container
	case kindVerify:
		url = sc.base + "/v1/verify?" + sc.query
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := sc.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", kindNames[kind], resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

func (sc *serviceCase) checkAnswer(kind int, body []byte) error {
	switch kind {
	case kindCompress:
		if !bytes.Equal(body, sc.container) {
			return errors.New("compress response differs from the direct codec output")
		}
	case kindDecompress:
		if !bytes.Equal(body, sc.decoded) {
			return errors.New("decompress response differs from the reference decode")
		}
	default:
		var rep struct {
			Preserved   bool    `json:"preserved"`
			FP          int     `json:"fp"`
			FN          int     `json:"fn"`
			FT          int     `json:"ft"`
			MaxAbsError float64 `json:"max_abs_error"`
		}
		if err := json.Unmarshal(body, &rep); err != nil {
			return fmt.Errorf("verify response: %w", err)
		}
		if !rep.Preserved || rep.FP+rep.FN+rep.FT != 0 || rep.MaxAbsError > sc.tauAbs {
			return fmt.Errorf("verify reports FP=%d FN=%d FT=%d max error %g (tau %g)",
				rep.FP, rep.FN, rep.FT, rep.MaxAbsError, sc.tauAbs)
		}
	}
	return nil
}

// arrivals returns seeded Poisson arrival offsets over dur.
func arrivals(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// sleepUntil waits for t or for ctx to end.
func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// openLoop sends every scheduled request at its due time, each on its own
// goroutine, and returns the outcomes and the generator's lag behind the
// schedule. In the traced run every other request carries a span.
func (sc *serviceCase) openLoop(ctx context.Context, seed int64, dur time.Duration, traced bool) ([]outcome, []float64, error) {
	due := arrivals(seed, serviceRate, dur)
	outs := make([]outcome, len(due))
	lags := make([]float64, len(due))
	start := time.Now()
	var wg sync.WaitGroup
	var err error
	for i, off := range due {
		at := start.Add(off)
		if err = sleepUntil(ctx, at); err != nil {
			break
		}
		lags[i] = ms(time.Since(at))
		var col *telemetry.Collector
		if traced && i%2 == 1 {
			col = sc.col
		}
		wg.Add(1)
		go func(i int, at time.Time, col *telemetry.Collector) {
			defer wg.Done()
			outs[i] = sc.request(ctx, mixPattern[i%len(mixPattern)], at, col)
		}(i, at, col)
	}
	wg.Wait()
	return outs, lags, err
}

// closedLoop runs callers back to back for dur, sending the mix in turn,
// and returns every outcome.
func (sc *serviceCase) closedLoop(ctx context.Context, callers int, dur time.Duration) []outcome {
	end := time.Now().Add(dur)
	per := make([][]outcome, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := c; time.Now().Before(end) && ctx.Err() == nil; seq += callers {
				per[c] = append(per[c], sc.request(ctx, mixPattern[seq%len(mixPattern)], time.Now(), nil))
			}
		}(c)
	}
	wg.Wait()
	var all []outcome
	for _, o := range per {
		all = append(all, o...)
	}
	return all
}

// lone runs one caller for dur, sending every kind in turn from the
// seq-th, so each kind's MB/s rests on a third of the requests. Each
// request starts after a host-speed sample, taken while the daemon is
// idle.
func (sc *serviceCase) lone(ctx context.Context, m *meter, seq int, dur time.Duration) []outcome {
	var outs []outcome
	for end := time.Now().Add(dur); time.Now().Before(end) && ctx.Err() == nil; seq++ {
		m.sampleHost()
		outs = append(outs, sc.request(ctx, seq%len(kindNames), time.Now(), nil))
	}
	return outs
}

// measure runs three phases: the open loop; one caller alone, whose
// per-kind latencies give the MB/s metrics, as one operation at a time
// does in the batch workloads; and maxConns callers, whose latencies,
// each including the wait for admission behind the other caller, give
// req_p50_ms and capacity_rps. The open loop's latencies,
// timed from when each request was due, are layer metrics of the traced
// run: at 40 req/s requests queue for the two connections and for
// admission, and that queueing multiplies the host's drift past any
// usable bound. The open loop therefore gets the smallest share of the
// run; every one of its requests is still checked. The other two phases
// alternate in slices, so both meet the same slow and fast stretches of
// the host. The host speed is sampled before each lone request and each
// two-caller slice, never during the load, where the reference loop would
// compete with the daemon.
func (sc *serviceCase) measure(m *meter) (map[string]float64, error) {
	ctx := context.Background()
	openDur := time.Duration(0.2 * float64(m.cfg.seconds))
	aloneDur := time.Duration(0.4 * float64(m.cfg.seconds) / closedSlices)
	closedDur := time.Duration(0.35 * float64(m.cfg.seconds) / closedSlices)
	open, lags, err := sc.openLoop(ctx, m.cfg.seed, openDur, m.lay != nil)
	if err != nil {
		return nil, err
	}
	var alone, closed []outcome
	for i := 0; i < closedSlices; i++ {
		alone = append(alone, sc.lone(ctx, m, len(alone), aloneDur)...)
		m.sampleHost()
		closed = append(closed, sc.closedLoop(ctx, maxConns, closedDur)...)
	}

	var openAll []float64
	var openSent [3][]float64
	for _, o := range open {
		if m.check(kindNames[o.kind], o.err) {
			openAll = append(openAll, o.fromDue().Seconds())
			openSent[o.kind] = append(openSent[o.kind], o.fromSent().Seconds())
		}
	}
	var byKind [3][]float64
	for _, o := range alone {
		if m.check(kindNames[o.kind], o.err) {
			byKind[o.kind] = append(byKind[o.kind], o.fromSent().Seconds())
		}
	}
	var all []float64
	within := 0
	for _, o := range closed {
		if !m.check(kindNames[o.kind], o.err) {
			continue
		}
		all = append(all, o.fromSent().Seconds())
		if o.fromSent() <= capacityLimit {
			within++
		}
	}
	if len(openAll) == 0 {
		return nil, errors.New("no open-loop request succeeded")
	}
	m.logf("open loop: %d requests at %.0f/s over %v, generator lag p99 %.2fms", len(open), serviceRate, openDur, quantile(lags, 0.99))
	m.series("from due", openAll)
	m.logf("one caller: %d requests over %d slices of %v", len(alone), closedSlices, aloneDur)
	for k, xs := range byKind {
		if len(xs) == 0 {
			return nil, fmt.Errorf("no %s request of the lone caller succeeded", kindNames[k])
		}
		m.series(kindNames[k], xs)
	}
	if len(all) == 0 {
		return nil, errors.New("no closed-loop request succeeded")
	}
	m.logf("closed loop: %d requests, %d callers, over %d slices of %v", len(closed), maxConns, closedSlices, closedDur)
	m.series("request", all)

	if m.lay != nil {
		m.lay.add("server.open_p50_ms", 1e3*median(openAll))
		m.lay.add("server.open_p90_ms", 1e3*quantile(openAll, 0.9))
		m.lay.add("server.req_p90_ms", 1e3*quantile(all, 0.9))
		if err := sc.traceLayers(m, openSent, lags); err != nil {
			return nil, err
		}
	}
	mb := float64(len(sc.raw)) / 1e6
	return map[string]float64{
		"compress_mbps":   mb / trimmedMean(byKind[kindCompress]),
		"decompress_mbps": mb / trimmedMean(byKind[kindDecompress]),
		"verify_mbps":     mb / trimmedMean(byKind[kindVerify]),
		"ratio":           float64(len(sc.raw)) / float64(len(sc.container)),
		"req_p50_ms":      1e3 * median(all),
		"capacity_rps":    float64(within) / (closedSlices * closedDur).Seconds(),
	}, nil
}

// traceLayers fills the traced run's layer samples: client-side service
// times, the daemon's own counters and handler histogram, and direct
// codec rounds on the same payload that expose the codec, slab pipeline,
// kernel and entropy layers the daemon runs.
func (sc *serviceCase) traceLayers(m *meter, fromSent [3][]float64, lags []float64) error {
	l := m.lay
	for k, xs := range fromSent {
		l.add("server."+kindNames[k]+"_p50_ms", 1e3*median(xs))
	}
	l.add("server.gen_lag_p99_ms", quantile(lags, 0.99))
	snap := sc.col.Snapshot()
	l.add("server.handler_p50_ms", float64(snap.Histograms["server.compress.latency_ns"].Quantile(0.5))/1e6)
	l.add("server.shed", float64(snap.Counters["server.shed"]))
	l.add("server.errors", float64(snap.Counters["server.errors"]))
	// Half the trace shows the daemon's requests, the rest the codec rounds.
	for _, s := range snap.Spans {
		if len(l.traces) < maxTraceRoots/2 {
			l.traces = append(l.traces, s)
		}
	}

	c, err := codec.Lookup(codec.FormatCP, 0)
	if err != nil {
		return err
	}
	var traced, untraced []float64
	for i := 0; i < codecRounds; i++ {
		var rl *layers
		if i%2 == 1 {
			rl = l
		}
		d, err := sc.codecRound(c, rl)
		if !m.check("codec", err) {
			continue
		}
		if rl != nil {
			traced = append(traced, d.Seconds())
		} else {
			untraced = append(untraced, d.Seconds())
		}
	}
	l.add("server.overhead_ms", 1e3*median(fromSent[kindCompress])-median(l.samples["codec.compress_ms"]))
	if len(traced) > 0 && len(untraced) > 0 {
		l.add("bench.trace_overhead_frac", median(traced)/median(untraced)-1)
	}
	return nil
}

// codecRound compresses and decompresses the request payload with the
// codec directly, checks the result, and in a traced round replays the
// layers underneath. It returns the compress duration.
func (sc *serviceCase) codecRound(c codec.Codec, l *layers) (time.Duration, error) {
	l.begin("bench.codec_round")
	p := sc.params
	p.Pipeline.Tel = l.tel()
	var buf bytes.Buffer
	sp := l.span("codec.compress")
	t0 := time.Now()
	_, err := c.Compress(field.Mem2D(sc.f), &buf, p)
	cd := time.Since(t0)
	sp.End()
	if err != nil {
		l.end()
		return cd, err
	}
	l.add("codec.compress_ms", ms(cd))
	comp := buf.Bytes()
	if !bytes.Equal(comp, sc.container) {
		l.end()
		return cd, errors.New("codec output differs from the reference container")
	}
	var g memField
	err = l.timed("codec.decompress_ms", func() error {
		_, err := c.Decompress(bytes.NewReader(comp), int64(len(comp)), codec.Params{Dims: p.Dims, Pipeline: p.Pipeline}, memSinkFor(&g))
		return err
	})
	if err != nil {
		l.end()
		return cd, err
	}
	if err := checkDecoded(l, g, sc.tr, sc.ref, sc.f.Components(), sc.tauAbs); err != nil {
		l.end()
		return cd, err
	}
	if l == nil {
		return cd, nil
	}
	snap := l.end()
	l.kernelLayers(snap, cd)
	l.shmLayers(snap, "shm.compress2d", streamWorkers)
	l.add("cp.points", float64(len(sc.ref)))
	l.replayFixed(sc.tr, sc.f.Components())
	if err := l.replayContainer(bytes.NewReader(comp), int64(len(comp))); err != nil {
		return cd, err
	}
	return cd, l.timed("shm.decompress_ms", func() error {
		var h memField
		_, err := shm.DecompressTo(bytes.NewReader(comp), int64(len(comp)), shm.Options{Workers: streamWorkers}, memSinkFor(&h))
		return err
	})
}
