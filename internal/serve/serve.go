// Package serve is the production serving layer of the library: a
// long-running HTTP/JSON evaluation service in front of the engine layer
// that amortizes preprocessing across requests.
//
// Every one-shot entry point (cmd/epol, examples) rebuilds the molecular
// surface, both octrees and the Born radii from scratch per evaluation,
// even though docking-style workloads evaluate thousands of requests
// against the same molecule. This package keeps a content-hash-keyed LRU
// of prepared problems (engine.Prepared: surface + octrees + Born radii)
// with singleflight deduplication, so concurrent requests for the same
// molecule build once and subsequent requests skip straight to the E_pol
// evaluation — the paper's §IV-C "octree construction as preprocessing",
// applied across a request stream.
//
// The service layers three mechanisms over the cache:
//
//   - Request batching: pose-sweep requests (POST /v1/sweep) that target
//     the same receptor/ligand pair with the same parameters and arrive
//     within Config.BatchWindow are coalesced into one engine run that
//     shares the prepared receptor and ligand and, by default, composes
//     each translated pose's complex surface from the cached parts
//     (surface.PoseComposer) instead of re-sampling it; rotated poses
//     fall back to re-sampling, which is valid for any rigid transform.
//
//   - Admission control and backpressure: evaluations run on a bounded
//     worker pool (Config.Workers slots over the shared-memory engine)
//     behind a bounded submission queue. A full queue yields a typed 429
//     with a Retry-After hint; a draining server yields 503; a missed
//     deadline yields 504 and the queued work is abandoned before it runs.
//
//   - Observability: every request gets an ID; cache hits/misses, queue
//     depth, rejections, batch coalescing and per-stage timings (surface /
//     tree build / eval) are counted once, in the server's obs.Registry,
//     rendered on GET /stats (and GET /metrics with Config.Observe) and
//     echoed per request.
//
//   - Streaming sessions: POST /v1/stream creates a stateful incremental
//     session (engine.Session) for a moving molecule; POST
//     /v1/stream/{id}/frame posts one frame of atom moves and gets the
//     updated energy back at O(changed atoms) cost; DELETE /v1/stream/{id}
//     closes it. The session store is capped at Config.MaxSessions (LRU
//     eviction) with idle eviction after Config.SessionIdle; frames ride
//     the same admission-controlled worker pool as one-shot requests.
//
// Endpoints: POST /v1/energy, POST /v1/sweep, POST /v1/stream,
// POST /v1/stream/{id}/frame, DELETE /v1/stream/{id}, GET /healthz,
// GET /stats. See DESIGN.md §9/§12 for the architecture and README
// "Serving"/"Streaming" for curl quickstarts.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"octgb/internal/obs"
	"octgb/internal/surface"
)

// Config configures a Server. The zero value serves on DefaultAddr with
// conservative defaults; see the field docs.
type Config struct {
	// Addr is the listen address (default ":8686"). Start binds it; tests
	// can instead mount Handler() on their own listener.
	Addr string
	// Workers is the worker-pool size — the maximum number of evaluations
	// in flight (default 2). Each evaluation is itself parallel over
	// Threads.
	Workers int
	// Threads is the work-stealing thread count per evaluation (default 2).
	Threads int
	// MaxQueue is the submission-queue capacity (default 64). Requests
	// beyond it are rejected with 429.
	MaxQueue int
	// MaxCacheBytes is the prepared-problem cache budget (default 256 MiB).
	// Least-recently-used entries are evicted when the estimated resident
	// size (engine.Prepared.MemoryBytes) exceeds it.
	MaxCacheBytes int64
	// MaxAtoms rejects oversized molecules up front (default 200000).
	MaxAtoms int
	// BatchWindow is how long a new sweep batch waits for compatible
	// requests to coalesce before running (default 5ms).
	BatchWindow time.Duration
	// MaxSessions caps the number of live /v1/stream sessions (default 8).
	// Sessions hold prepared state resident (tens of MB for protein-scale
	// molecules); creating one past the cap evicts the least-recently-used
	// live session, whose subsequent frames get 404 not_found.
	MaxSessions int
	// SessionIdle evicts stream sessions that have not seen a frame for
	// this long (default 5m). Checked on every stream request.
	SessionIdle time.Duration
	// DefaultDeadline bounds a request's total latency (queue wait +
	// evaluation) when the request does not set deadline_ms (default 60s).
	DefaultDeadline time.Duration
	// BornEps / EpolEps are the default approximation parameters when a
	// request does not override them (default 0.9/0.9, the paper's
	// operating point).
	BornEps, EpolEps float64
	// Surface is the default surface sampling resolution.
	Surface surface.Options
	// Logger receives request and lifecycle logs; nil is silent.
	Logger *log.Logger
	// ReadHeaderTimeout / ReadTimeout / IdleTimeout harden the listener
	// against slow or stalled clients (Slowloris-style header dribbling,
	// abandoned keep-alive connections). Zero applies the defaults (10s /
	// 5m / 2m); a negative value disables that timeout. ReadTimeout's
	// default is generous because energy request bodies can be tens of MB.
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	IdleTimeout       time.Duration
	// Observe attaches tracing and the scrape endpoints: per-request spans
	// on the tracer, the /stats latency block, and the /metrics,
	// /debug/trace and /debug/pprof/* endpoints on the mux (kept outside
	// the drain gate so scrapes survive shutdown). /metrics renders the
	// server's own registry, then the observer's: engine runs triggered by
	// requests share the observer, so one scrape shows the serve, engine
	// and scheduler layers together. The server's counters and histograms
	// record with or without it. Nil (the default) records no spans.
	Observe *obs.Observer
	// Tuner enables the closed-loop admission tuner: every Interval the
	// server diffs its own latency histograms and adjusts the batch
	// window, effective queue depth and shed-load threshold against the
	// configured SLO (see TunerConfig). Nil (the default) leaves all knobs
	// at their configured values.
	Tuner *TunerConfig
}

// DefaultAddr is the default listen address.
const DefaultAddr = ":8686"

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = DefaultAddr
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Threads <= 0 {
		c.Threads = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.MaxCacheBytes <= 0 {
		c.MaxCacheBytes = 256 << 20
	}
	if c.MaxAtoms <= 0 {
		c.MaxAtoms = 200000
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 5 * time.Millisecond
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8
	}
	if c.SessionIdle <= 0 {
		c.SessionIdle = 5 * time.Minute
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 60 * time.Second
	}
	if c.BornEps == 0 {
		c.BornEps = 0.9
	}
	if c.EpolEps == 0 {
		c.EpolEps = 0.9
	}
	if c.Surface == (surface.Options{}) {
		c.Surface = surface.Default()
	}
	c.ReadHeaderTimeout = resolveTimeout(c.ReadHeaderTimeout, 10*time.Second)
	c.ReadTimeout = resolveTimeout(c.ReadTimeout, 5*time.Minute)
	c.IdleTimeout = resolveTimeout(c.IdleTimeout, 2*time.Minute)
	return c
}

// resolveTimeout maps the Config timeout convention onto http.Server's:
// zero means def, negative means disabled (http.Server's zero).
func resolveTimeout(v, def time.Duration) time.Duration {
	switch {
	case v < 0:
		return 0
	case v == 0:
		return def
	default:
		return v
	}
}

// Server is a resident E_pol evaluation service. Create with New, mount
// Handler on a listener or call Start, and stop with Shutdown.
type Server struct {
	cfg     Config
	metrics *metrics
	cache   *prepCache
	mux     *http.ServeMux

	queue        chan func()
	stopCh       chan struct{} // closed once by Shutdown after handlers drain
	workers      sync.WaitGroup
	handlersLive atomic.Int64
	draining     atomic.Bool
	stopped      atomic.Bool

	pendingMu sync.Mutex
	pending   map[string]*pendingSweep

	sessMu   sync.Mutex
	sessions map[string]*streamSession
	sessSeq  atomic.Int64

	// Tunable admission knobs, owned by the tuner loop (or pinned at the
	// configured defaults when no tuner runs). Read lock-free on every
	// admission decision and batch open.
	batchWindowNS atomic.Int64
	queueLimit    atomic.Int64
	shedLatNS     atomic.Int64

	tunerMu sync.Mutex
	tuner   *Tuner

	nonce  string
	reqSeq atomic.Int64

	httpMu   sync.Mutex
	httpSrv  *http.Server
	listener net.Listener
}

// New builds a Server and starts its worker pool. The HTTP side is not
// bound until Start (or until the caller mounts Handler themselves).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		metrics:  newMetrics(cfg.Observe),
		queue:    make(chan func(), cfg.MaxQueue),
		stopCh:   make(chan struct{}),
		pending:  make(map[string]*pendingSweep),
		sessions: make(map[string]*streamSession),
	}
	s.cache = newPrepCache(cfg.MaxCacheBytes, s.metrics)
	s.batchWindowNS.Store(int64(cfg.BatchWindow))
	s.queueLimit.Store(int64(cfg.MaxQueue))
	s.registerGauges()
	var nb [4]byte
	_, _ = rand.Read(nb[:])
	s.nonce = hex.EncodeToString(nb[:])

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/energy", s.wrap(s.handleEnergy))
	s.mux.HandleFunc("/v1/sweep", s.wrap(s.handleSweep))
	s.mux.HandleFunc("/v1/stream", s.wrap(s.handleStreamCreate))
	s.mux.HandleFunc("/v1/stream/", s.wrap(s.handleStreamSub))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	if cfg.Observe != nil {
		s.mountDebug(cfg.Observe)
	}

	for w := 0; w < cfg.Workers; w++ {
		s.workers.Add(1)
		go s.worker()
	}
	if cfg.Tuner != nil && cfg.Tuner.SLO.P99 > 0 {
		s.tuner = newTuner(cfg)
		s.workers.Add(1)
		go s.tunerLoop(s.tuner.cfg.Interval)
	}
	return s
}

// Handler returns the HTTP handler tree — the hook for tests and for
// embedding the service behind an existing mux or TLS terminator.
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds cfg.Addr and serves until Shutdown. It returns once the
// listener is bound; serving continues in the background.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", s.cfg.Addr, err)
	}
	s.httpMu.Lock()
	s.listener = ln
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: s.cfg.ReadHeaderTimeout,
		ReadTimeout:       s.cfg.ReadTimeout,
		IdleTimeout:       s.cfg.IdleTimeout,
	}
	srv := s.httpSrv
	s.httpMu.Unlock()
	s.logf("serve: listening on %s (workers=%d threads=%d queue=%d cache=%dMiB)",
		ln.Addr(), s.cfg.Workers, s.cfg.Threads, s.cfg.MaxQueue, s.cfg.MaxCacheBytes>>20)
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.logf("serve: %v", err)
		}
	}()
	return nil
}

// Addr returns the bound listen address (useful with ":0"), or "" before
// Start.
func (s *Server) Addr() string {
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Shutdown drains the server gracefully: new requests are rejected with
// 503 immediately, in-flight requests (including queued ones) run to
// completion, then the worker pool stops. It returns ctx.Err() if the
// drain does not finish in time; the server is unusable afterwards either
// way.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.logf("serve: draining")

	// Parked sweep handlers are in-flight HTTP requests: srv.Shutdown below
	// waits for them, and they are waiting for their batch's window timer.
	// Flush every pending batch now (stopping its timer) so shutdown
	// latency is bounded by evaluation time, not by BatchWindow.
	s.flushAllPending()

	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	if srv != nil {
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
	}

	// Wait for handler goroutines (covers Handler() mounted on external
	// listeners, e.g. httptest) — every waiter they registered resolves
	// before they return. Polled so stragglers that race the drain can
	// still register, get their 503, and unregister without tripping
	// WaitGroup reuse rules. A single reused ticker paces the poll (the
	// previous per-iteration time.After allocated a timer every
	// millisecond for the whole drain). Stragglers admitted before the
	// draining flag flipped can also still open a batch, so the flush
	// repeats inside the loop.
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for s.handlersLive.Load() > 0 {
		s.flushAllPending()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}

	if s.stopped.CompareAndSwap(false, true) {
		close(s.stopCh)
	}
	workersDone := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(workersDone)
	}()
	select {
	case <-workersDone:
		s.logf("serve: drained")
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker executes queued evaluations until the server stops; on stop it
// drains whatever is already queued so accepted work is never dropped.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		select {
		case f := <-s.queue:
			s.metrics.inflight.Add(1)
			f()
			s.metrics.inflight.Add(-1)
		case <-s.stopCh:
			for {
				select {
				case f := <-s.queue:
					s.metrics.inflight.Add(1)
					f()
					s.metrics.inflight.Add(-1)
				default:
					return
				}
			}
		}
	}
}

// errQueueFull, errDraining and errShedLoad are the typed admission
// failures.
var (
	errQueueFull = fmt.Errorf("serve: queue full")
	errDraining  = fmt.Errorf("serve: draining")
	errShedLoad  = fmt.Errorf("serve: load shed")
)

// admissionCheck is the shared admission gate: draining reject, effective
// queue-depth limit (the tuner's knob — it can sit below the channel's
// physical capacity), and the shed-load threshold (reject arrivals whose
// estimated queue wait would already blow the latency budget, instead of
// parking them to time out and drag everything behind them down). Counts
// the matching rejection metric; the caller maps the error onto HTTP.
func (s *Server) admissionCheck() error {
	if s.draining.Load() {
		s.metrics.rejectedDraining.Inc()
		return errDraining
	}
	depth := len(s.queue)
	if depth >= int(s.queueLimit.Load()) {
		s.metrics.rejectedQueueFull.Inc()
		return errQueueFull
	}
	if shed := s.shedLatNS.Load(); shed > 0 && depth >= s.cfg.Workers {
		if mean := s.metrics.eval.Snapshot().Mean(); mean > 0 {
			if est := int64(depth/s.cfg.Workers) * int64(mean); est > shed {
				s.metrics.shedLoad.Inc()
				return errShedLoad
			}
		}
	}
	return nil
}

// submit enqueues an evaluation without blocking; admission control lives
// here. The returned error is errQueueFull, errShedLoad or errDraining.
func (s *Server) submit(f func()) error {
	if err := s.admissionCheck(); err != nil {
		return err
	}
	select {
	case s.queue <- f:
		return nil
	default:
		s.metrics.rejectedQueueFull.Inc()
		return errQueueFull
	}
}

// batchWindow returns the current (possibly tuned) sweep coalescing
// window.
func (s *Server) batchWindow() time.Duration {
	return time.Duration(s.batchWindowNS.Load())
}

// tunerWindow is one control-loop sample: cumulative counters plus
// histogram snapshots, diffed against the previous sample to produce the
// window the tuner decides on.
type tunerWindow struct {
	at              time.Time
	completed, shed int64
	req, queue      obs.HistSnapshot
}

func (s *Server) tunerSample() tunerWindow {
	return tunerWindow{
		at:        time.Now(),
		completed: s.metrics.completed.Value(),
		shed:      s.metrics.shedLoad.Value(),
		req: s.metrics.reqEnergy.Snapshot().
			Add(s.metrics.reqSweep.Snapshot()).
			Add(s.metrics.reqStream.Snapshot()),
		queue: s.metrics.queueWait.Snapshot(),
	}
}

// diff converts two samples into the tuner's window observations.
func (w tunerWindow) diff(prev tunerWindow) TunerInputs {
	in := TunerInputs{
		P99:      w.req.Sub(prev.req).Quantile(0.99),
		QueueP99: w.queue.Sub(prev.queue).Quantile(0.99),
		Shed:     uint64(w.shed - prev.shed),
	}
	if s := w.at.Sub(prev.at).Seconds(); s > 0 {
		in.AdmittedQPS = float64(w.completed-prev.completed) / s
	}
	return in
}

// tunerLoop is the control loop: every Interval it feeds the window diff
// to the tuner and publishes the resulting knobs to the admission atomics.
// Exits when the server stops.
func (s *Server) tunerLoop(interval time.Duration) {
	defer s.workers.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	prev := s.tunerSample()
	for {
		select {
		case <-s.stopCh:
			return
		case <-tick.C:
			cur := s.tunerSample()
			in := cur.diff(prev)
			prev = cur
			s.tunerMu.Lock()
			d := s.tuner.Step(in)
			s.tunerMu.Unlock()
			s.applyKnobs(d.Knobs)
			if d.Action != "hold" && d.Action != "idle" {
				s.logf("serve: tuner %s", d)
			}
		}
	}
}

// applyKnobs publishes tuner decisions to the lock-free admission path.
func (s *Server) applyKnobs(k Knobs) {
	s.batchWindowNS.Store(int64(k.BatchWindow))
	s.queueLimit.Store(int64(k.QueueLimit))
	s.shedLatNS.Store(int64(k.ShedLatency))
}

// TunerDecisions returns a copy of the tuner's decision log (nil when no
// tuner is configured) — the hook the load harness and /stats use.
func (s *Server) TunerDecisions() []Decision {
	if s.tuner == nil {
		return nil
	}
	s.tunerMu.Lock()
	defer s.tunerMu.Unlock()
	return append([]Decision(nil), s.tuner.Log()...)
}

// CurrentKnobs returns the admission knobs currently in force.
func (s *Server) CurrentKnobs() Knobs {
	return Knobs{
		BatchWindow: time.Duration(s.batchWindowNS.Load()),
		QueueLimit:  int(s.queueLimit.Load()),
		ShedLatency: time.Duration(s.shedLatNS.Load()),
	}
}

// submitBatch enqueues a coalesced batch. Batches represent requests that
// were already admitted, so a full queue blocks instead of rejecting; a
// stopped server fails the send (the batch's waiters are all gone by
// then — Shutdown drains handlers before stopping workers).
func (s *Server) submitBatch(f func()) bool {
	select {
	case <-s.stopCh:
		return false
	default:
	}
	select {
	case s.queue <- f:
		return true
	case <-s.stopCh:
		return false
	}
}

// nextReqID mints a request ID: a per-process nonce plus a sequence
// number, grep-friendly across the request log and /stats.
func (s *Server) nextReqID() string {
	return fmt.Sprintf("%s-%06d", s.nonce, s.reqSeq.Add(1))
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// wrap is the common handler shell: handler-liveness accounting for
// graceful drain plus the draining fast-reject.
func (s *Server) wrap(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.handlersLive.Add(1)
		defer s.handlersLive.Add(-1)
		if s.draining.Load() {
			s.metrics.rejectedDraining.Inc()
			writeError(w, http.StatusServiceUnavailable, s.nextReqID(), "draining", "server is shutting down", 0)
			return
		}
		h(w, r)
	}
}
