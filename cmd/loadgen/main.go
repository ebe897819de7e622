// Command loadgen replays a committed trace spec against the serving tier
// on the wall clock and reports what the clients saw.
//
// By default it boots a real serve.Server in-process (its own listener on
// 127.0.0.1:0), sized by the trace's sim block, with the admission tuner
// on whenever the trace states an SLO. The session cap is the trace's
// stream-session count, so no session of the replay is evicted. The report
// carries the tuner's decision log; that log, written with -o, is the
// fixture internal/serve's TestTunerReplaysLiveLog replays (`make
// load-bench` records it).
//
//	-target URL  drive an already-running deployment — an epolrouter
//	             front end or a bare epolserve — instead of booting a
//	             server. Against a router the report breaks admitted qps
//	             down per shard from the X-Octgb-Worker response header.
//	-o FILE      write the run's JSON: the trace's sizing and SLO, the
//	             GOMAXPROCS and the commit of the build that ran it, and
//	             the report.
//
// Example:
//
//	go run ./cmd/loadgen -trace traces/live-smoke.json
//	go run ./cmd/loadgen -trace traces/steady-mixed.json -target http://127.0.0.1:8700
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"octgb/internal/loadgen"
	"octgb/internal/serve"
)

// liveRun is the document -o writes.
type liveRun struct {
	Trace string `json:"trace"`
	// Commit is the VCS revision the binary was built from, suffixed
	// "+dirty" for a modified tree; empty when the build carries none
	// (`go run` does not stamp it).
	Commit     string          `json:"commit,omitempty"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Sim        loadgen.SimSpec `json:"sim"`
	SLO        loadgen.SLOSpec `json:"slo"`
	IntervalMS float64         `json:"interval_ms"`
	Live       *loadgen.Report `json:"live"`
}

func main() {
	var (
		trace    = flag.String("trace", "", "trace spec JSON (required)")
		interval = flag.Duration("interval", 250*time.Millisecond, "tuner control interval")
		speed    = flag.Float64("speed", 1, "time dilation (2 = replay twice as fast)")
		target   = flag.String("target", "", "base URL of a running router or server to drive (no in-process server)")
		out      = flag.String("o", "", "write the run's JSON to this file")
	)
	flag.Parse()
	if *trace == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -trace is required")
		os.Exit(2)
	}
	if err := run(*trace, *interval, *speed, *target, *out); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
}

func run(tracePath string, interval time.Duration, speed float64, target, outPath string) error {
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
	doc := liveRun{
		Trace:      spec.Name,
		Commit:     buildCommit(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Sim:        spec.Sim,
		SLO:        spec.SLO,
		IntervalMS: float64(interval) / float64(time.Millisecond),
	}
	if doc.Live, err = runLive(spec, reqs, interval, speed, target); err != nil {
		return err
	}
	rep := doc.Live
	fmt.Printf("live: p50=%.1fms p95=%.1fms p99=%.1fms qps=%.1f completed=%d rejected=%d shed=%d failed=%d evicted=%d decisions=%d\n",
		rep.P50MS, rep.P95MS, rep.P99MS, rep.AdmittedQPS, rep.Completed,
		rep.RejectedQueueFull, rep.Shed, rep.Failed, rep.EvictedSessions, len(rep.Decisions))
	if len(rep.PerShardQPS) > 0 {
		shards := make([]string, 0, len(rep.PerShardQPS))
		for s := range rep.PerShardQPS {
			shards = append(shards, s)
		}
		sort.Strings(shards)
		fmt.Printf("per-shard admitted qps:\n")
		for _, s := range shards {
			fmt.Printf("  %-24s %.1f\n", s, rep.PerShardQPS[s])
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
	return nil
}

// buildCommit reads the VCS revision stamped into the binary.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, dirty string
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	if rev == "" {
		return ""
	}
	return rev + dirty
}

// runLive boots a real server sized by the trace's sim block (tuner
// enabled when the trace has an SLO) and replays the trace against it over
// HTTP. With a target the boot is skipped and the trace drives the given
// deployment — an epolrouter front end fans the arrivals out across its
// shards.
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
	// Every stream session of the trace fits, so the session cap evicts
	// none of them and no 404 enters the measurement.
	for _, r := range reqs {
		if r.Kind == loadgen.KindStream {
			cfg.MaxSessions++
		}
	}
	if spec.Sim.BatchWindowMS > 0 {
		cfg.BatchWindow = time.Duration(spec.Sim.BatchWindowMS * float64(time.Millisecond))
	}
	if spec.SLO.P99MS > 0 {
		cfg.Tuner = &serve.TunerConfig{
			SLO: serve.SLO{
				P99:    time.Duration(spec.SLO.P99MS * float64(time.Millisecond)),
				MinQPS: spec.SLO.MinQPS,
			},
			Interval: interval,
		}
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
