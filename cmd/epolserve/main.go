// Command epolserve runs the resident E_pol evaluation service: an
// HTTP/JSON server with a prepared-problem cache, pose-sweep batching and
// admission control in front of the engine layer.
//
// Usage:
//
//	epolserve -addr :8686 -workers 2 -threads 4
//	epolserve -cache-mb 1024 -queue 256 # bigger deployment
//	epolserve -slo-p99 150ms -slo-min-qps 50   # self-tuning admission
//
// Endpoints: POST /v1/energy, POST /v1/sweep, POST /v1/stream (create an
// incremental session) with POST /v1/stream/{id}/frame and DELETE
// /v1/stream/{id}, GET /healthz, GET /stats —
// plus, with -observe (the default), GET /metrics (Prometheus text
// format), GET /debug/trace (Chrome trace_event JSON) and the
// /debug/pprof/* profiling family. See README "Serving"/"Observability"
// for curl quickstarts, DESIGN.md §9 for the serving architecture and §10
// for the metric inventory. SIGTERM/SIGINT drain gracefully: in-flight and
// queued requests complete, new ones are rejected with 503 (metrics keep
// scraping during the drain).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"octgb/internal/fabric"
	"octgb/internal/obs"
	"octgb/internal/serve"
	"octgb/internal/surface"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "epolserve:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: it parses args, serves until
// SIGTERM/SIGINT, drains and returns. When ready is non-nil the bound
// address is sent on it once the listener is up.
func run(args []string, out io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("epolserve", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr        = fs.String("addr", serve.DefaultAddr, "listen address")
		workers     = fs.Int("workers", 2, "worker pool size (concurrent evaluations)")
		threads     = fs.Int("threads", 2, "work-stealing threads per evaluation")
		queue       = fs.Int("queue", 64, "submission queue capacity (admission limit)")
		cacheMB     = fs.Int("cache-mb", 256, "prepared-problem cache budget in MiB")
		maxAtoms    = fs.Int("max-atoms", 200000, "reject molecules larger than this")
		batchWindow = fs.Duration("batch-window", 5*time.Millisecond, "sweep coalescing window")
		maxSessions = fs.Int("max-sessions", 8, "live /v1/stream session cap (LRU eviction)")
		sessionIdle = fs.Duration("session-idle", 5*time.Minute, "evict stream sessions idle this long")
		deadline    = fs.Duration("deadline", 60*time.Second, "default per-request deadline")
		drain       = fs.Duration("drain-timeout", 2*time.Minute, "graceful shutdown budget")
		bornEps     = fs.Float64("borneps", 0.9, "default Born-radius approximation parameter ε")
		epolEps     = fs.Float64("epoleps", 0.9, "default energy approximation parameter ε")
		subdiv      = fs.Int("subdiv", 1, "default surface icosphere subdivision level (0-4)")
		degree      = fs.Int("degree", 1, "default Dunavant quadrature degree (1-5)")
		observe     = fs.Bool("observe", true, "expose /metrics, /debug/trace and /debug/pprof/* and record latency histograms")
		sloP99      = fs.Duration("slo-p99", 0, "enable the admission tuner: steer batch window, queue depth and shed threshold toward this admitted-p99 target (0 = tuner off)")
		sloQPS      = fs.Float64("slo-min-qps", 0, "admitted-throughput floor the tuner protects while tightening (with -slo-p99)")
		sloEvery    = fs.Duration("slo-interval", time.Second, "tuner control interval (with -slo-p99)")
		join        = fs.String("join", "", "fabric worker mode: register with an epolrouter's membership address (host:port) and serve a shard")
		workerID    = fs.String("worker-id", "", "stable worker identity on the ring (with -join; default host-pid)")
		advertise   = fs.String("advertise", "", "HTTP address the router forwards to (with -join; default the bound listen address)")
		verbose     = fs.Bool("v", false, "log every request")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := serve.CheckSampling(*subdiv, *degree); err != nil {
		return fmt.Errorf("-subdiv/-degree: %w", err)
	}

	cfg := serve.Config{
		Addr:            *addr,
		Workers:         *workers,
		Threads:         *threads,
		MaxQueue:        *queue,
		MaxCacheBytes:   int64(*cacheMB) << 20,
		MaxAtoms:        *maxAtoms,
		BatchWindow:     *batchWindow,
		MaxSessions:     *maxSessions,
		SessionIdle:     *sessionIdle,
		DefaultDeadline: *deadline,
		BornEps:         *bornEps,
		EpolEps:         *epolEps,
		Surface:         surface.Options{SubdivLevel: *subdiv, Degree: *degree},
	}
	if *observe {
		cfg.Observe = obs.New()
	}
	if *sloP99 > 0 {
		cfg.Tuner = &serve.TunerConfig{
			SLO:      serve.SLO{P99: *sloP99, MinQPS: *sloQPS},
			Interval: *sloEvery,
		}
	}
	if *verbose {
		cfg.Logger = log.New(out, "", log.LstdFlags|log.Lmicroseconds)
	}

	// Register the handler before binding so a signal racing startup is
	// never lost.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	s := serve.New(cfg)
	if err := s.Start(); err != nil {
		return err
	}
	fmt.Fprintf(out, "epolserve: listening on %s\n", s.Addr())

	// Fabric worker mode: join a router's ring and heartbeat load reports
	// for its cache-aware balancer. The agent reconnects on its own if the
	// router restarts; Close sends a Goodbye so a drain unmaps the shard
	// immediately instead of waiting out the heartbeat timeout.
	var agent *fabric.Worker
	if *join != "" {
		id := *workerID
		if id == "" {
			id = defaultWorkerID()
		}
		adv := *advertise
		if adv == "" {
			adv = s.Addr()
		}
		a, err := fabric.StartWorker(fabric.WorkerConfig{
			RouterAddr: *join,
			WorkerID:   id,
			Advertise:  adv,
			Epoch:      uint64(time.Now().UnixNano()),
			Load:       fabric.ServeLoad(s),
			Logf: func(format string, args ...any) {
				if *verbose {
					fmt.Fprintf(out, format+"\n", args...)
				}
			},
		})
		if err != nil {
			_ = s.Shutdown(context.Background())
			return err
		}
		agent = a
		fmt.Fprintf(out, "epolserve: joining fabric at %s as %s (advertising %s)\n", *join, id, adv)
	}
	if ready != nil {
		ready <- s.Addr()
	}

	sig := <-sigCh
	fmt.Fprintf(out, "epolserve: %v — draining\n", sig)
	if agent != nil {
		agent.Close() // goodbye first: the router stops routing here before the drain
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(out, "epolserve: drained")
	return nil
}

// defaultWorkerID derives a ring identity from host and pid, restricted
// to the registration protocol's ID alphabet.
func defaultWorkerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	id := []byte(fmt.Sprintf("%s-%d", host, os.Getpid()))
	for i, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			id[i] = '-'
		}
	}
	if len(id) > 64 {
		id = id[:64]
	}
	return string(id)
}
