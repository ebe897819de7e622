package serve

import (
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"octgb/internal/core"
	"octgb/internal/obs"
)

// Metric names and help strings recorded by the serving layer (full
// inventory in DESIGN.md §10).
const (
	reqMetric   = "octgb_serve_request_seconds"
	reqHelp     = "End-to-end request latency by endpoint, admission rejects excluded."
	queueMetric = "octgb_serve_queue_wait_seconds"
	queueHelp   = "Time an admitted request spent queued before a worker picked it up."
	stageMetric = "octgb_serve_stage_seconds"
	stageHelp   = "Per-stage evaluation time: surface sampling, octree+Born prepare, E_pol eval, cache builds, coalesced batch runs, stream creates and frames."
)

// metrics is the server's one instrumentation. Every event is counted once,
// in reg, the server's own registry: /metrics renders reg and /stats reads
// the same handles, so the two views cannot disagree. The handles are
// resolved here, once, so the request path does no registry lookups. The
// registry is per server, not the Observer's, because servers that share
// an Observer must keep separate /stats and LoadStats. ob only adds spans:
// with it nil every histogram and counter still records.
type metrics struct {
	reg   *obs.Registry
	ob    *obs.Observer
	start time.Time

	energyRequests, sweepRequests                 *obs.Counter
	completed, failed                             *obs.Counter
	rejectedQueueFull, rejectedDraining, shedLoad *obs.Counter
	deadlineMisses, canceled                      *obs.Counter

	cacheHits, cacheMisses, cacheCoalesced, cacheBuilds, cacheEvictions *obs.Counter

	batchesRun, batchedRequests, batchedPoses *obs.Counter

	streamCreates, streamFrames, streamCloses, streamEvictedIdle, streamEvictedLRU *obs.Counter

	// inflight goes down as well as up, which an obs.Counter cannot; the
	// octgb_serve_inflight gauge reads it.
	inflight atomic.Int64

	reqEnergy, reqSweep, reqStream, queueWait *obs.Histogram
	// Stage histograms; their sums and counts are the /stats timings.
	surface, prepare, eval, build, batch, streamCreate, streamFrame *obs.Histogram
}

func newMetrics(ob *obs.Observer) *metrics {
	reg := obs.NewRegistry()
	const (
		requests = "octgb_serve_requests_total"
		reqsHelp = "Energy and sweep requests received."
		results  = "octgb_serve_results_total"
		resHelp  = "Admitted requests answered: completed, or failed in evaluation."
		rejects  = "octgb_serve_rejects_total"
		rejHelp  = "Requests refused at admission, by reason."
		cache    = "octgb_serve_cache_total"
		cacheHlp = "Prepared-problem cache events: hit, miss, coalesced (waited on another build), build, eviction."
		stream   = "octgb_serve_stream_total"
		strHelp  = "Stream session events: created (create requests), frame (frames that found their session), closed, evicted_idle, evicted_lru."
	)
	stage := func(labels string) *obs.Histogram { return reg.Histogram(stageMetric, labels, stageHelp) }
	return &metrics{
		reg:   reg,
		ob:    ob,
		start: time.Now(),

		energyRequests:    reg.Counter(requests, `endpoint="energy"`, reqsHelp),
		sweepRequests:     reg.Counter(requests, `endpoint="sweep"`, reqsHelp),
		completed:         reg.Counter(results, `result="completed"`, resHelp),
		failed:            reg.Counter(results, `result="failed"`, resHelp),
		rejectedQueueFull: reg.Counter(rejects, `reason="queue_full"`, rejHelp),
		rejectedDraining:  reg.Counter(rejects, `reason="draining"`, rejHelp),
		shedLoad:          reg.Counter(rejects, `reason="shed_load"`, rejHelp),
		deadlineMisses:    reg.Counter("octgb_serve_deadline_misses_total", "", "Requests answered 504: the deadline passed before the evaluation did."),
		canceled:          reg.Counter("octgb_serve_canceled_total", "", "Queued work abandoned before it ran (deadline passed or client gone)."),

		cacheHits:      reg.Counter(cache, `event="hit"`, cacheHlp),
		cacheMisses:    reg.Counter(cache, `event="miss"`, cacheHlp),
		cacheCoalesced: reg.Counter(cache, `event="coalesced"`, cacheHlp),
		cacheBuilds:    reg.Counter(cache, `event="build"`, cacheHlp),
		cacheEvictions: reg.Counter(cache, `event="eviction"`, cacheHlp),

		batchesRun:      reg.Counter("octgb_serve_batches_total", "", "Coalesced sweep batches run."),
		batchedRequests: reg.Counter("octgb_serve_batched_requests_total", "", "Sweep requests that rode in a batch."),
		batchedPoses:    reg.Counter("octgb_serve_batched_poses_total", "", "Poses scored in batches."),

		streamCreates:     reg.Counter(stream, `event="created"`, strHelp),
		streamFrames:      reg.Counter(stream, `event="frame"`, strHelp),
		streamCloses:      reg.Counter(stream, `event="closed"`, strHelp),
		streamEvictedIdle: reg.Counter(stream, `event="evicted_idle"`, strHelp),
		streamEvictedLRU:  reg.Counter(stream, `event="evicted_lru"`, strHelp),

		reqEnergy: reg.Histogram(reqMetric, `endpoint="energy"`, reqHelp),
		reqSweep:  reg.Histogram(reqMetric, `endpoint="sweep"`, reqHelp),
		reqStream: reg.Histogram(reqMetric, `endpoint="stream"`, reqHelp),
		queueWait: reg.Histogram(queueMetric, "", queueHelp),
		surface:   stage(`stage="surface"`),
		prepare:   stage(`stage="prepare"`),
		eval:      stage(`stage="eval"`),
		build:     stage(`stage="build"`),
		batch:     stage(`stage="batch"`),
		// Stream stages carry mode="stream" so dashboards can split the
		// incremental per-frame latency series from one-shot evaluation.
		streamCreate: stage(`stage="create",mode="stream"`),
		streamFrame:  stage(`stage="frame",mode="stream"`),
	}
}

// registerGauges adds the server's up-and-down values to its registry;
// each is sampled when /metrics renders.
func (s *Server) registerGauges() {
	reg := s.metrics.reg
	gauge := func(name, help string, f func() float64) { reg.GaugeFunc(name, "", help, f) }
	gauge("octgb_serve_inflight", "Evaluations running on the worker pool.",
		func() float64 { return float64(s.metrics.inflight.Load()) })
	gauge("octgb_serve_queue_depth", "Evaluations waiting in the submission queue.",
		func() float64 { return float64(len(s.queue)) })
	gauge("octgb_serve_queue_limit", "Effective queue-depth limit in force (the tuner's knob).",
		func() float64 { return float64(s.queueLimit.Load()) })
	gauge("octgb_serve_cache_entries", "Prepared problems resident in the cache.",
		func() float64 { entries, _ := s.cache.stats(); return float64(entries) })
	gauge("octgb_serve_cache_bytes", "Estimated resident bytes of the prepared-problem cache.",
		func() float64 { _, bytes := s.cache.stats(); return float64(bytes) })
	gauge("octgb_serve_stream_sessions", "Live /v1/stream sessions.",
		func() float64 { return float64(s.liveSessions()) })
	gauge("octgb_engine_recycled_bytes", "Bytes of retired solver, session and tile storage the engine holds for reuse (core.Free).",
		func() float64 { return float64(core.Free.Held()) })
}

// request closes a completed request: the endpoint latency histogram plus,
// with an Observer, the root span minted by ob.NextID. name must be a
// constant ("serve.energy", "serve.sweep") so no strings are built.
func (m *metrics) request(h *obs.Histogram, name string, id uint64, start time.Time) {
	d := time.Since(start)
	h.Observe(d)
	if m.ob != nil {
		m.ob.Trace.RecordID(id, name, 0, 0, start, d)
	}
}

// stage records one already-measured stage: a histogram observation (h may
// be nil for span-only stages) and, with an Observer, a span under parent.
func (m *metrics) stage(h *obs.Histogram, name string, parent uint64, start time.Time, d time.Duration) {
	if d < 0 {
		// Failed batches carry a zero start time; don't skew the sums.
		d = 0
	}
	h.Observe(d)
	m.ob.Record(name, parent, 0, start, d)
}

// mountDebug exposes the observability endpoints on the server mux:
// Prometheus metrics (the server's registry, then the Observer's), the
// Chrome trace_event dump, and the pprof family. They are mounted raw —
// not through wrap — so scrapes and profiles keep working while the server
// drains.
func (s *Server) mountDebug(ob *obs.Observer) {
	s.mux.Handle("/metrics", obs.Handler(s.metrics.reg, ob.Reg))
	s.mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = ob.Trace.WriteTrace(w)
	})
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
