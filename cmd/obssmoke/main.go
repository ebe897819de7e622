// Command obssmoke is the observability smoke test behind `make
// obs-smoke`: it boots the serving stack with instrumentation on a
// loopback port, drives one energy request and one pose sweep through it,
// then scrapes GET /metrics and fails the process if the exposition is
// malformed (obs.ValidateExposition) or any expected metric family is
// missing, and checks /debug/trace decodes as trace_event JSON. It needs
// no external tooling — the validator is the library's own line-by-line
// Prometheus text-format parser — so it runs anywhere `go run` does.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"octgb/internal/molecule"
	"octgb/internal/obs"
	"octgb/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "obssmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("obssmoke: PASS")
}

func run() error {
	ob := obs.New()
	s := serve.New(serve.Config{
		Addr:    "127.0.0.1:0",
		Workers: 2,
		Threads: 2,
		Observe: ob,
	})
	if err := s.Start(); err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	base := "http://" + s.Addr()

	mol := serve.FromMolecule(molecule.GenerateProtein("smoke", 150, 1))
	if err := post(base+"/v1/energy", serve.EnergyRequest{Molecule: mol}); err != nil {
		return fmt.Errorf("energy request: %w", err)
	}
	sweep := serve.SweepRequest{Ligand: mol, Poses: []serve.PoseJSON{{T: [3]float64{2, 0, 0}}}}
	if err := post(base+"/v1/sweep", sweep); err != nil {
		return fmt.Errorf("sweep request: %w", err)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics status %d", resp.StatusCode)
	}
	if err := obs.ValidateExposition(bytes.NewReader(body)); err != nil {
		return fmt.Errorf("malformed exposition: %w", err)
	}
	// Every family the server registers, then two the engine runs add.
	for _, want := range []string{
		"serve_request_seconds", "serve_queue_wait_seconds", "serve_stage_seconds",
		"serve_requests_total", "serve_results_total", "serve_rejects_total", "serve_deadline_misses_total",
		"serve_canceled_total", "serve_cache_total", "serve_batches_total", "serve_batched_requests_total",
		"serve_batched_poses_total", "serve_stream_total", "serve_inflight", "serve_queue_depth",
		"serve_queue_limit", "serve_cache_entries", "serve_cache_bytes", "serve_stream_sessions",
		"engine_recycled_bytes", "engine_phase_seconds", "sched_executed_total",
	} {
		if !strings.Contains(string(body), "\n# TYPE octgb_"+want+" ") {
			return fmt.Errorf("/metrics missing family octgb_%s", want)
		}
	}
	fmt.Printf("obssmoke: /metrics valid (%d bytes, %d lines)\n", len(body), bytes.Count(body, []byte("\n")))

	resp, err = http.Get(base + "/debug/trace")
	if err != nil {
		return err
	}
	var dump struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	err = json.NewDecoder(resp.Body).Decode(&dump)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("/debug/trace: %w", err)
	}
	if len(dump.TraceEvents) == 0 {
		return fmt.Errorf("/debug/trace holds no spans after two requests")
	}
	fmt.Printf("obssmoke: /debug/trace valid (%d spans)\n", len(dump.TraceEvents))
	return nil
}

func post(url string, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	return nil
}
