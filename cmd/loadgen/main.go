// Command loadgen replays a committed trace spec against the serving tier
// and gates the result on its SLO — the load-harness entry point
// (`make load-check` in CI, ad-hoc experiments by hand).
//
// Modes:
//
//	-mode sim   (default) virtual-time replay through the queueing model
//	            (internal/loadgen + simtime.ServeCosts): deterministic,
//	            seconds of trace in milliseconds of wall time. Runs the
//	            trace twice — untuned baseline, then with the serve.Tuner
//	            admission loop — and reports both.
//	-mode live  wall-clock replay against a real in-process serve.Server
//	            (its own listener on 127.0.0.1:0). Honest end-to-end
//	            latencies, reported as exact nearest-rank p50/p95/p99, but
//	            wall-time expensive: keep live traces small.
//	-mode both  live smoke after the sim pair.
//	-target URL router mode: drive an already-running deployment — an
//	            epolrouter front end or a bare epolserve — instead of
//	            booting a server in-process (implies -mode live). Against a
//	            router the report breaks admitted qps down per shard from
//	            the X-Octgb-Worker response header.
//
// Gating:
//
//	-check BENCH_slo.json   verify the sim pair against the committed
//	                        baseline: the tuned run must meet the trace's
//	                        SLO, must not fall behind the untuned run's
//	                        admitted throughput, and must stay within 15%
//	                        of the committed tuned numbers (p99 up or
//	                        throughput down). Exit 1 on any regression.
//	-o FILE                 write the run's report JSON (the committed
//	                        baseline is exactly this output).
//
// Example:
//
//	go run ./cmd/loadgen -trace traces/steady-mixed.json -o BENCH_slo.json
//	go run ./cmd/loadgen -trace traces/steady-mixed.json -check BENCH_slo.json
//	go run ./cmd/loadgen -trace traces/steady-mixed.json -target http://127.0.0.1:8700
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"octgb/internal/loadgen"
	"octgb/internal/serve"
)

// sloBench is the BENCH_slo.json document: the trace identity, its SLO,
// and the deterministic sim pair (plus the live smoke when run with
// -mode both).
type sloBench struct {
	Trace   string          `json:"trace"`
	SLO     loadgen.SLOSpec `json:"slo"`
	Untuned *loadgen.Report `json:"untuned"`
	Tuned   *loadgen.Report `json:"tuned"`
	Live    *loadgen.Report `json:"live,omitempty"`
}

// tolerance is the regression band against the committed baseline: tuned
// p99 may grow, and tuned admitted throughput may shrink, by at most 15%.
const tolerance = 0.15

func main() {
	var (
		trace    = flag.String("trace", "", "trace spec JSON (required)")
		mode     = flag.String("mode", "sim", "sim, live, or both")
		interval = flag.Duration("interval", 250*time.Millisecond, "tuner control interval")
		speed    = flag.Float64("speed", 1, "live-mode time dilation (2 = replay twice as fast)")
		target   = flag.String("target", "", "base URL of a running router or server to drive (implies -mode live; no in-process server)")
		check    = flag.String("check", "", "verify against a committed BENCH_slo.json; exit 1 on regression")
		out      = flag.String("o", "", "write the report JSON to this file")
	)
	flag.Parse()
	if *trace == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -trace is required")
		os.Exit(2)
	}
	if *target != "" {
		*mode = "live"
	}
	if err := run(*trace, *mode, *interval, *speed, *target, *check, *out); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
}

func run(tracePath, mode string, interval time.Duration, speed float64, target, checkPath, outPath string) error {
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		return err
	}
	spec, err := loadgen.ParseTraceSpec(raw)
	if err != nil {
		return err
	}
	reqs, err := loadgen.Generate(spec)
	if err != nil {
		return err
	}
	doc := sloBench{Trace: spec.Name, SLO: spec.SLO}

	if mode == "sim" || mode == "both" {
		if doc.Untuned, err = loadgen.Simulate(spec, reqs, loadgen.SimOptions{}); err != nil {
			return err
		}
		tc := tunerFor(spec, interval)
		if doc.Tuned, err = loadgen.Simulate(spec, reqs, loadgen.SimOptions{Tuner: tc}); err != nil {
			return err
		}
		fmt.Printf("sim untuned: p99=%.1fms qps=%.1f rejected=%d shed=%d\n",
			doc.Untuned.P99MS, doc.Untuned.AdmittedQPS, doc.Untuned.RejectedQueueFull, doc.Untuned.Shed)
		fmt.Printf("sim tuned:   p99=%.1fms qps=%.1f rejected=%d shed=%d decisions=%d knobs=%+v\n",
			doc.Tuned.P99MS, doc.Tuned.AdmittedQPS, doc.Tuned.RejectedQueueFull, doc.Tuned.Shed,
			len(doc.Tuned.Decisions), doc.Tuned.FinalKnobs)
	}
	if mode == "live" || mode == "both" {
		if doc.Live, err = runLive(spec, reqs, interval, speed, target); err != nil {
			return err
		}
		fmt.Printf("live:        p50=%.1fms p95=%.1fms p99=%.1fms qps=%.1f completed=%d rejected=%d shed=%d failed=%d evicted=%d\n",
			doc.Live.P50MS, doc.Live.P95MS, doc.Live.P99MS, doc.Live.AdmittedQPS, doc.Live.Completed,
			doc.Live.RejectedQueueFull, doc.Live.Shed, doc.Live.Failed, doc.Live.EvictedSessions)
		if len(doc.Live.PerShardQPS) > 0 {
			shards := make([]string, 0, len(doc.Live.PerShardQPS))
			for s := range doc.Live.PerShardQPS {
				shards = append(shards, s)
			}
			sort.Strings(shards)
			fmt.Printf("per-shard admitted qps:\n")
			for _, s := range shards {
				fmt.Printf("  %-24s %.1f\n", s, doc.Live.PerShardQPS[s])
			}
		}
	}

	if outPath != "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	if checkPath != "" {
		return checkAgainst(doc, spec, checkPath)
	}
	return nil
}

// tunerFor builds the tuner configuration the trace's SLO implies.
func tunerFor(spec *loadgen.TraceSpec, interval time.Duration) *serve.TunerConfig {
	return &serve.TunerConfig{
		SLO: serve.SLO{
			P99:    time.Duration(spec.SLO.P99MS * float64(time.Millisecond)),
			MinQPS: spec.SLO.MinQPS,
		},
		Interval: interval,
	}
}

// runLive boots a real server sized by the trace's sim block (tuner
// enabled — live mode exists to watch the real control loop move) and
// replays the trace against it over HTTP. With a -target the boot is
// skipped and the trace drives the given deployment — an epolrouter front
// end fans the arrivals out across its shards.
func runLive(spec *loadgen.TraceSpec, reqs []loadgen.Request, interval time.Duration, speed float64, target string) (*loadgen.Report, error) {
	if target != "" {
		return loadgen.RunLive(spec, reqs, loadgen.LiveOptions{
			BaseURL: strings.TrimRight(target, "/"),
			Speed:   speed,
		})
	}
	cfg := serve.Config{
		Addr:     "127.0.0.1:0",
		Workers:  spec.Sim.Workers,
		Threads:  1,
		MaxQueue: spec.Sim.Queue,
	}
	if spec.Sim.BatchWindowMS > 0 {
		cfg.BatchWindow = time.Duration(spec.Sim.BatchWindowMS * float64(time.Millisecond))
	}
	if spec.SLO.P99MS > 0 {
		cfg.Tuner = tunerFor(spec, interval)
	}
	srv := serve.New(cfg)
	if err := srv.Start(); err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	rep, err := loadgen.RunLive(spec, reqs, loadgen.LiveOptions{
		BaseURL: "http://" + srv.Addr(),
		Speed:   speed,
	})
	if err != nil {
		return nil, err
	}
	for _, d := range srv.TunerDecisions() {
		rep.Decisions = append(rep.Decisions, d.String())
	}
	k := srv.CurrentKnobs()
	rep.FinalKnobs = &k
	rep.Tuned = cfg.Tuner != nil
	return rep, nil
}

// checkAgainst is the CI gate: absolute SLO compliance, tuned-vs-untuned
// throughput, and the ±15% band against the committed baseline.
func checkAgainst(doc sloBench, spec *loadgen.TraceSpec, path string) error {
	if doc.Tuned == nil || doc.Untuned == nil {
		return fmt.Errorf("-check requires sim mode")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base sloBench
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if base.Trace != doc.Trace {
		return fmt.Errorf("baseline is for trace %q, ran %q", base.Trace, doc.Trace)
	}
	if base.Tuned == nil {
		return fmt.Errorf("baseline %s has no tuned report", path)
	}

	var fails []string
	// 1. The tuned run meets the trace's explicit SLO.
	if err := doc.Tuned.CheckSLO(spec.SLO); err != nil {
		fails = append(fails, err.Error())
	}
	// 2. Tuning never costs admitted throughput against the untuned tier.
	if doc.Tuned.AdmittedQPS < doc.Untuned.AdmittedQPS {
		fails = append(fails, fmt.Sprintf("tuned admitted %.2f qps under untuned %.2f",
			doc.Tuned.AdmittedQPS, doc.Untuned.AdmittedQPS))
	}
	// 3. No drift past the band vs the committed baseline.
	if lim := base.Tuned.P99MS * (1 + tolerance); doc.Tuned.P99MS > lim {
		fails = append(fails, fmt.Sprintf("tuned p99 %.1fms exceeds baseline %.1fms +15%% (%.1fms)",
			doc.Tuned.P99MS, base.Tuned.P99MS, lim))
	}
	if lim := base.Tuned.AdmittedQPS * (1 - tolerance); doc.Tuned.AdmittedQPS < lim {
		fails = append(fails, fmt.Sprintf("tuned qps %.2f under baseline %.2f -15%% (%.2f)",
			doc.Tuned.AdmittedQPS, base.Tuned.AdmittedQPS, lim))
	}
	if len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "SLO GATE FAIL: %s\n", f)
		}
		return fmt.Errorf("%d SLO gate failure(s)", len(fails))
	}
	fmt.Printf("SLO gate OK: tuned p99 %.1fms ≤ %.0fms, qps %.1f ≥ untuned %.1f (baseline p99 %.1fms, qps %.1f)\n",
		doc.Tuned.P99MS, spec.SLO.P99MS, doc.Tuned.AdmittedQPS, doc.Untuned.AdmittedQPS,
		base.Tuned.P99MS, base.Tuned.AdmittedQPS)
	return nil
}
