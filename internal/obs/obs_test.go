package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/flightrec"
	"repro/internal/telemetry"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestServeEndpoints(t *testing.T) {
	col := telemetry.New()
	run := col.Span("shm.compress2d")
	for i := 0; i < 3; i++ {
		run.Child("slab").End()
	}
	run.End()
	col.Counter("shm.compress2d.slab.panics").Add(1)
	col.Histogram("core.2d.bound_exp").Observe(7)

	rec := flightrec.New(64)
	rec.Record(flightrec.Event{Kind: flightrec.KindPanic, Subsystem: "shm.compress2d", Slab: 2})
	rec.Record(flightrec.Event{Kind: flightrec.KindDegraded, Subsystem: "shm.compress2d", Slab: 2})

	srv, err := Serve("127.0.0.1:0", col, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"topozip_shm_compress2d_slab_panics_total 1",
		"topozip_core_2d_bound_exp_p99 7",
		`topozip_stage_latency_seconds{stage="slab",quantile="0.99"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, base+"/healthz")
	var health struct {
		OK       bool    `json:"ok"`
		UptimeS  float64 `json:"uptime_s"`
		Recorded uint64  `json:"flightrec_events"`
	}
	if code != http.StatusOK || json.Unmarshal([]byte(body), &health) != nil {
		t.Fatalf("/healthz status %d body %q", code, body)
	}
	if !health.OK || health.Recorded != 2 {
		t.Errorf("health = %+v", health)
	}

	code, body = get(t, base+"/debug/trace")
	if code != http.StatusOK || !strings.Contains(body, `"traceEvents"`) {
		t.Errorf("/debug/trace status %d body %q", code, body)
	}

	code, body = get(t, base+"/debug/flightrec")
	var dump flightrec.Dump
	if code != http.StatusOK || json.Unmarshal([]byte(body), &dump) != nil {
		t.Fatalf("/debug/flightrec status %d body %q", code, body)
	}
	if dump.Recorded != 2 || len(dump.Events) != 2 || dump.Events[1].Kind != flightrec.KindDegraded {
		t.Errorf("flightrec dump = %+v", dump)
	}

	code, _ = get(t, base+"/debug/vars")
	if code != http.StatusOK {
		t.Errorf("/debug/vars status %d", code)
	}
	code, _ = get(t, base+"/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", code)
	}
}

func TestServeNilSources(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	if code, body := get(t, base+"/metrics"); code != http.StatusOK || body != "" {
		t.Errorf("/metrics on nil collector: status %d body %q", code, body)
	}
	if code, _ := get(t, base+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz status %d", code)
	}
	if code, body := get(t, base+"/debug/flightrec"); code != http.StatusOK || !strings.Contains(body, `"recorded": 0`) {
		t.Errorf("/debug/flightrec: status %d body %q", code, body)
	}
}

func TestServerNilAndCloseIdempotent(t *testing.T) {
	var s *Server
	if s.Addr() != "" {
		t.Error("nil server must report empty address")
	}
	if err := s.Close(); err != nil {
		t.Errorf("nil close: %v", err)
	}
	srv, err := Serve("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The port is released: a fresh bind to the same address succeeds
	// shortly after close.
	deadline := time.Now().Add(2 * time.Second)
	for {
		srv2, err := Serve(srv.Addr(), nil, nil)
		if err == nil {
			srv2.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("port not released: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
