package serve

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"octgb/internal/molecule"
	"octgb/internal/obs"
	"octgb/internal/testutil"
)

// TestConfigTimeoutDefaults pins the listener-timeout convention: zero
// applies the hardening defaults, negative disables, positive passes
// through.
func TestConfigTimeoutDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.ReadHeaderTimeout != 10*time.Second || c.ReadTimeout != 5*time.Minute || c.IdleTimeout != 2*time.Minute {
		t.Fatalf("defaults: header=%v read=%v idle=%v", c.ReadHeaderTimeout, c.ReadTimeout, c.IdleTimeout)
	}
	c = Config{ReadHeaderTimeout: -1, ReadTimeout: 3 * time.Second, IdleTimeout: -1}.withDefaults()
	if c.ReadHeaderTimeout != 0 || c.ReadTimeout != 3*time.Second || c.IdleTimeout != 0 {
		t.Fatalf("overrides: header=%v read=%v idle=%v", c.ReadHeaderTimeout, c.ReadTimeout, c.IdleTimeout)
	}
}

// TestServerSlowHeaderTimeout proves the Start listener is hardened against
// header-dribbling clients: a connection that never finishes its request
// header is closed once ReadHeaderTimeout elapses, instead of pinning a
// connection goroutine forever (the old &http.Server{Handler: mux} had no
// timeouts at all).
func TestServerSlowHeaderTimeout(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	s := New(Config{Addr: "127.0.0.1:0", Workers: 1, Threads: 1, ReadHeaderTimeout: 200 * time.Millisecond})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send an eternally incomplete header block.
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\nX-Slow: ")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server answered an incomplete request header")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("server did not close the dribbling connection within 10s")
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("connection closed after %v, want ~ReadHeaderTimeout", e)
	}

	// Well-formed requests still work on the same server.
	resp, err := http.Get("http://" + s.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after slow client: %d", resp.StatusCode)
	}
}

// TestServerShutdownFlushesPendingBatch is the flush-after-shutdown
// regression test: with a long batch window, Shutdown must stop the armed
// window timer and flush the pending batch immediately — the parked sweep
// handler is an in-flight request the HTTP drain waits for, so shutdown
// latency has to be bounded by evaluation time, not BatchWindow. Before the
// fix this test took the full 30s window (and the timer fired into a
// stopped worker pool).
func TestServerShutdownFlushesPendingBatch(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	baseline := runtime.NumGoroutine()

	s := New(Config{Workers: 1, Threads: 1, BatchWindow: 30 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	lig := molecule.GenerateProtein("flush", 60, 9)
	req := SweepRequest{Ligand: FromMolecule(lig), Poses: []PoseJSON{{T: [3]float64{1, 0, 0}}}}
	var resp SweepResponse
	var code int
	done := make(chan struct{})
	go func() {
		defer close(done)
		code = postJSON(t, ts.URL+"/v1/sweep", req, &resp)
	}()

	// Wait until the sweep is parked in a pending batch.
	for i := 0; ; i++ {
		s.pendingMu.Lock()
		n := len(s.pending)
		s.pendingMu.Unlock()
		if n == 1 {
			break
		}
		if i > 10000 {
			t.Fatal("sweep never entered the pending batch")
		}
		time.Sleep(time.Millisecond)
	}

	shutdownStart := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if e := time.Since(shutdownStart); e > 10*time.Second {
		t.Fatalf("shutdown took %v, batch window was not flushed early", e)
	}
	<-done
	if code != http.StatusOK {
		t.Fatalf("parked sweep got %d during shutdown, want 200", code)
	}
	if len(resp.Energies) != 1 {
		t.Fatalf("parked sweep returned %d energies, want 1", len(resp.Energies))
	}

	// Nothing left behind: no batch timers, no ticker, no workers.
	ts.Close()
	if n := testutil.WaitGoroutines(baseline, 10*time.Second); n > baseline {
		t.Fatalf("goroutine leak after flush+drain: %d live, baseline %d", n, baseline)
	}
}

// TestServerObservability exercises the Config.Observe wiring end to end:
// request/queue/stage histograms and engine metrics on /metrics (valid
// exposition), per-request spans on /debug/trace, pprof mounted, and the
// /stats latency block.
func TestServerObservability(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	ob := obs.New()
	s, ts := newTestServer(t, Config{Workers: 2, Threads: 1, Observe: ob})

	mol := molecule.GenerateProtein("obs", 150, 4)
	req := EnergyRequest{Molecule: FromMolecule(mol)}
	for i := 0; i < 2; i++ { // one cold, one warm
		var er EnergyResponse
		if code := postJSON(t, ts.URL+"/v1/energy", req, &er); code != http.StatusOK {
			t.Fatalf("energy %d: status %d", i, code)
		}
	}
	sw := SweepRequest{Ligand: FromMolecule(mol), Poses: []PoseJSON{{T: [3]float64{2, 0, 0}}}}
	var sr SweepResponse
	if code := postJSON(t, ts.URL+"/v1/sweep", sw, &sr); code != http.StatusOK {
		t.Fatalf("sweep status %d", code)
	}

	// /metrics renders a valid exposition covering serve and engine layers.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if err := obs.ValidateExposition(strings.NewReader(string(body))); err != nil {
		t.Fatalf("/metrics invalid exposition: %v\n%s", err, body)
	}
	for _, want := range []string{
		`octgb_serve_request_seconds_count{endpoint="energy"}`,
		`octgb_serve_request_seconds_count{endpoint="sweep"}`,
		"octgb_serve_queue_wait_seconds_count",
		`octgb_serve_stage_seconds_count{stage="prepare"}`,
		`octgb_serve_stage_seconds_count{stage="eval"}`,
		`octgb_serve_stage_seconds_count{stage="batch"}`,
		"octgb_engine_phase_seconds", // requests ran with eo.Observe = cfg.Observe
		"octgb_sched_executed_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if n := strings.Count(string(body), `octgb_serve_stage_seconds_count{stage="eval"`); n != 1 {
		t.Errorf("/metrics has %d eval-stage series, want the one", n)
	}

	// /debug/trace is loadable trace_event JSON with the request spans.
	resp, err = http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatalf("/debug/trace decode: %v", err)
	}
	resp.Body.Close()
	names := map[string]bool{}
	for _, ev := range dump.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"serve.energy", "serve.sweep", "serve.queue", "serve.cache", "serve.eval", "serve.batch"} {
		if !names[want] {
			t.Errorf("/debug/trace missing span %q (have %v)", want, names)
		}
	}

	// pprof answers on the same mux.
	resp, err = http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", resp.StatusCode)
	}

	// /stats gains the latency quantile block.
	var st StatsSnapshot
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"precision"`) {
		t.Error("/stats still splits evaluations by precision")
	}
	if st.Latency == nil {
		t.Fatal("/stats missing latency block with Observe set")
	}
	if st.Latency.Energy.Count != 2 || st.Latency.Sweep.Count != 1 {
		t.Fatalf("latency counts energy=%d sweep=%d, want 2/1", st.Latency.Energy.Count, st.Latency.Sweep.Count)
	}
	if st.Latency.Energy.P99MS <= 0 {
		t.Fatalf("energy p99 = %v, want > 0", st.Latency.Energy.P99MS)
	}

	// Debug endpoints bypass the drain gate: scrapes keep working while
	// (and after) the server drains.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics during drain: status %d", resp.StatusCode)
	}
}

// TestServerObserveOffStats pins that without Config.Observe the /stats
// payload has no latency block and the debug endpoints are not mounted.
func TestServerObserveOffStats(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	_, ts := newTestServer(t, Config{Workers: 1, Threads: 1})

	var st StatsSnapshot
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Latency != nil {
		t.Fatal("latency block present without an observer")
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics without observer: status %d, want 404", resp.StatusCode)
	}
}
