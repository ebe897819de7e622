package serve

import (
	"time"

	"octgb/internal/obs"
)

// StatsSnapshot is the GET /stats payload — a point-in-time copy of every
// counter plus derived queue/cache occupancy.
type StatsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`

	Requests struct {
		Energy    int64 `json:"energy"`
		Sweep     int64 `json:"sweep"`
		Completed int64 `json:"completed"`
		Failed    int64 `json:"failed"`
	} `json:"requests"`

	Admission struct {
		QueueDepth        int   `json:"queue_depth"`
		QueueCapacity     int   `json:"queue_capacity"`
		QueueLimit        int   `json:"queue_limit"`
		Inflight          int64 `json:"inflight"`
		Workers           int   `json:"workers"`
		RejectedQueueFull int64 `json:"rejected_queue_full"`
		RejectedDraining  int64 `json:"rejected_draining"`
		ShedLoad          int64 `json:"shed_load"`
		DeadlineMisses    int64 `json:"deadline_misses"`
		Canceled          int64 `json:"canceled"`
	} `json:"admission"`

	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Coalesced int64 `json:"coalesced"`
		Builds    int64 `json:"builds"`
		Evictions int64 `json:"evictions"`
		Entries   int   `json:"entries"`
		Bytes     int64 `json:"bytes"`
		MaxBytes  int64 `json:"max_bytes"`
	} `json:"cache"`

	Batching struct {
		BatchesRun      int64 `json:"batches_run"`
		BatchedRequests int64 `json:"batched_requests"`
		BatchedPoses    int64 `json:"batched_poses"`
	} `json:"batching"`

	// Streaming covers the stateful /v1/stream sessions: live store
	// occupancy against the cap, lifecycle counters (Frames counts the frame
	// requests that found their session) and the total frame evaluation
	// time (FrameMSTotal / Frames ≈ mean incremental frame cost).
	Streaming struct {
		Live         int     `json:"live"`
		MaxSessions  int     `json:"max_sessions"`
		Created      int64   `json:"created"`
		Frames       int64   `json:"frames"`
		Closed       int64   `json:"closed"`
		EvictedIdle  int64   `json:"evicted_idle"`
		EvictedLRU   int64   `json:"evicted_lru"`
		FrameMSTotal float64 `json:"frame_ms_total"`
	} `json:"streaming"`

	Timings struct {
		SurfaceMSTotal float64 `json:"surface_ms_total"`
		PrepareMSTotal float64 `json:"prepare_ms_total"`
		EvalMSTotal    float64 `json:"eval_ms_total"`
		BuildMSTotal   float64 `json:"build_ms_total"`
		Evals          int64   `json:"evals"`
	} `json:"timings"`

	// Latency is present only when the server runs with Config.Observe: the
	// request-latency quantiles of each endpoint, derived from the same
	// histograms /metrics exports.
	Latency *LatencySnapshot `json:"latency,omitempty"`

	// Tuner is present only when the closed-loop admission tuner runs: the
	// knobs currently in force, the SLO it targets, and its decision tally.
	Tuner *TunerSnapshot `json:"tuner,omitempty"`
}

// TunerSnapshot is the /stats view of the admission control loop.
type TunerSnapshot struct {
	SLO          SLO    `json:"slo"`
	Knobs        Knobs  `json:"knobs"`
	Decisions    int    `json:"decisions"`
	LastDecision string `json:"last_decision,omitempty"`
}

// LatencySnapshot is the /stats request-latency block (observer-enabled
// servers only).
type LatencySnapshot struct {
	Energy EndpointLatency `json:"energy"`
	Sweep  EndpointLatency `json:"sweep"`
}

// EndpointLatency summarizes one endpoint's request-latency histogram.
// Quantiles are upper bucket bounds (see obs.HistSnapshot.Quantile).
type EndpointLatency struct {
	Count int64   `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

func endpointLatency(h *obs.Histogram) EndpointLatency {
	snap := h.Snapshot()
	return EndpointLatency{
		Count: int64(snap.Count),
		P50MS: float64(snap.Quantile(0.50)) / 1e6,
		P95MS: float64(snap.Quantile(0.95)) / 1e6,
		P99MS: float64(snap.Quantile(0.99)) / 1e6,
	}
}

// LoadStats is the instantaneous load view a fabric worker agent reports
// on its membership heartbeats (internal/fabric): admission gauges
// against pool capacity plus shard warmth. Plain ints so fabric maps the
// fields without serve importing it.
type LoadStats struct {
	Workers      int
	QueueDepth   int
	Inflight     int64
	Sessions     int
	CacheEntries int
	CacheHits    int64
	CacheMisses  int64
}

// LoadStats returns the current load view; safe for concurrent use.
func (s *Server) LoadStats() LoadStats {
	entries, _ := s.cache.stats()
	return LoadStats{
		Workers:      s.cfg.Workers,
		QueueDepth:   len(s.queue),
		Inflight:     s.metrics.inflight.Load(),
		Sessions:     s.liveSessions(),
		CacheEntries: entries,
		CacheHits:    s.metrics.cacheHits.Value(),
		CacheMisses:  s.metrics.cacheMisses.Value(),
	}
}

// liveSessions returns the number of live /v1/stream sessions.
func (s *Server) liveSessions() int {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return len(s.sessions)
}

// msTotal is a histogram's observed total in milliseconds.
func msTotal(h *obs.Histogram) float64 {
	return float64(h.Snapshot().Sum) / 1e6
}

// snapshot renders /stats from the server's metric handles: each counter
// is the one /metrics exports, each timing a stage histogram's sum.
func (s *Server) snapshot() StatsSnapshot {
	m := s.metrics
	var out StatsSnapshot
	out.UptimeSeconds = time.Since(m.start).Seconds()
	out.Draining = s.draining.Load()

	out.Requests.Energy = m.energyRequests.Value()
	out.Requests.Sweep = m.sweepRequests.Value()
	out.Requests.Completed = m.completed.Value()
	out.Requests.Failed = m.failed.Value()

	out.Admission.QueueDepth = len(s.queue)
	out.Admission.QueueCapacity = cap(s.queue)
	out.Admission.QueueLimit = int(s.queueLimit.Load())
	out.Admission.Inflight = m.inflight.Load()
	out.Admission.Workers = s.cfg.Workers
	out.Admission.RejectedQueueFull = m.rejectedQueueFull.Value()
	out.Admission.RejectedDraining = m.rejectedDraining.Value()
	out.Admission.ShedLoad = m.shedLoad.Value()
	out.Admission.DeadlineMisses = m.deadlineMisses.Value()
	out.Admission.Canceled = m.canceled.Value()

	entries, bytes := s.cache.stats()
	out.Cache.Hits = m.cacheHits.Value()
	out.Cache.Misses = m.cacheMisses.Value()
	out.Cache.Coalesced = m.cacheCoalesced.Value()
	out.Cache.Builds = m.cacheBuilds.Value()
	out.Cache.Evictions = m.cacheEvictions.Value()
	out.Cache.Entries = entries
	out.Cache.Bytes = bytes
	out.Cache.MaxBytes = s.cfg.MaxCacheBytes

	out.Batching.BatchesRun = m.batchesRun.Value()
	out.Batching.BatchedRequests = m.batchedRequests.Value()
	out.Batching.BatchedPoses = m.batchedPoses.Value()

	out.Streaming.Live = s.liveSessions()
	out.Streaming.MaxSessions = s.cfg.MaxSessions
	out.Streaming.Created = m.streamCreates.Value()
	out.Streaming.Frames = m.streamFrames.Value()
	out.Streaming.Closed = m.streamCloses.Value()
	out.Streaming.EvictedIdle = m.streamEvictedIdle.Value()
	out.Streaming.EvictedLRU = m.streamEvictedLRU.Value()
	out.Streaming.FrameMSTotal = msTotal(m.streamFrame)

	out.Timings.SurfaceMSTotal = msTotal(m.surface)
	out.Timings.PrepareMSTotal = msTotal(m.prepare)
	evals := m.eval.Snapshot()
	out.Timings.EvalMSTotal = float64(evals.Sum) / 1e6
	out.Timings.BuildMSTotal = msTotal(m.build)
	out.Timings.Evals = int64(evals.Count)

	if m.ob != nil {
		out.Latency = &LatencySnapshot{
			Energy: endpointLatency(m.reqEnergy),
			Sweep:  endpointLatency(m.reqSweep),
		}
	}
	if s.tuner != nil {
		s.tunerMu.Lock()
		ts := &TunerSnapshot{
			SLO:       s.tuner.cfg.SLO,
			Decisions: len(s.tuner.log),
		}
		if n := len(s.tuner.log); n > 0 {
			ts.LastDecision = s.tuner.log[n-1].String()
		}
		s.tunerMu.Unlock()
		ts.Knobs = s.CurrentKnobs()
		out.Tuner = ts
	}
	return out
}
