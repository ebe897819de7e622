package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"octgb"
	"octgb/internal/serve"
)

// TestEpolserveEndToEnd drives the binary's real entry point over a real
// TCP listener: the quickstart molecule's served energy must match the
// library's one-shot octgb.Compute, and a SIGTERM mid-request must drain
// gracefully — the in-flight request completes before run() returns.
func TestEpolserveEndToEnd(t *testing.T) {
	var out bytes.Buffer
	ready := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-threads", "2"}, &out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-runErr:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr

	// Readiness over the wire.
	hz, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", hz.StatusCode)
	}

	// The README quickstart molecule, served vs computed in-process.
	mol := octgb.GenerateProtein("demo", 500, 1)
	want, err := octgb.Compute(mol, octgb.Options{
		Engine: octgb.OctCilk, Threads: 2, BornEps: 0.9, EpolEps: 0.9,
		Surface: octgb.SurfaceOptions{SubdivLevel: 1, Degree: 1, RadiusScale: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var resp serve.EnergyResponse
	code := post(t, base+"/v1/energy", serve.EnergyRequest{Molecule: serve.FromMolecule(mol)}, &resp)
	if code != http.StatusOK {
		t.Fatalf("energy status %d", code)
	}
	if d := math.Abs(resp.Energy-want.Energy) / math.Abs(want.Energy); d > 1e-12 {
		t.Fatalf("served %.17g vs octgb.Compute %.17g (rel %.3g)", resp.Energy, want.Energy, d)
	}
	if resp.Cache != "miss" {
		t.Fatalf("first request cache = %q, want miss", resp.Cache)
	}

	// Put a cold (slow) request in flight, then SIGTERM the process while
	// it runs.
	slow := octgb.GenerateProtein("slow", 2000, 9)
	slowDone := make(chan int, 1)
	var slowResp serve.EnergyResponse
	go func() {
		slowDone <- post(t, base+"/v1/energy", serve.EnergyRequest{Molecule: serve.FromMolecule(slow)}, &slowResp)
	}()
	waitInflight(t, base)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	select {
	case code := <-slowDone:
		if code != http.StatusOK {
			t.Fatalf("in-flight request got %d during drain, want 200", code)
		}
		if slowResp.Energy >= 0 {
			t.Fatalf("in-flight request returned energy %v", slowResp.Energy)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want clean exit", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("run never returned after SIGTERM")
	}
	for _, wantLine := range []string{"listening on", "draining", "drained"} {
		if !strings.Contains(out.String(), wantLine) {
			t.Fatalf("log missing %q:\n%s", wantLine, out.String())
		}
	}
}

// TestEpolserveBadFlags: flag errors surface as a run() error, not an
// os.Exit deep in the stack.
func TestEpolserveBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &out, nil); err == nil {
		t.Fatal("expected flag parse error")
	}
	// The sampling defaults answer to the bounds requests are held to.
	for _, args := range [][]string{{"-subdiv", "5"}, {"-degree", "6"}, {"-degree", "-1"}} {
		if err := run(args, &out, nil); err == nil {
			t.Errorf("%v: expected a start-up error", args)
		}
	}
}

func post(t *testing.T, url string, v, dst any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if dst != nil {
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp.StatusCode
}

// waitInflight polls /stats until an evaluation is actually running.
func waitInflight(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st serve.StatsSnapshot
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Admission.Inflight > 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(fmt.Errorf("no evaluation entered flight"))
}
