package serve

import (
	"net/http"
	"net/http/pprof"
	"time"

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
	stageHelp   = "Per-stage evaluation time: surface sampling, octree+Born prepare, E_pol eval, coalesced batch runs."
)

// serveObs holds the serving layer's pre-resolved instruments so the
// request path pays one histogram lookup per server, not per request. The
// zero value (Config.Observe nil) is fully inert: every histogram is nil
// (Observe is a no-op) and span recording is skipped, so the
// observability-off path performs no observability allocations.
type serveObs struct {
	ob           *obs.Observer
	reqEnergy    *obs.Histogram
	reqSweep     *obs.Histogram
	reqStream    *obs.Histogram
	queueWait    *obs.Histogram
	surface      *obs.Histogram
	prepare      *obs.Histogram
	eval         *obs.Histogram
	batch        *obs.Histogram
	streamCreate *obs.Histogram
	streamFrame  *obs.Histogram
}

func newServeObs(ob *obs.Observer) serveObs {
	if ob == nil {
		return serveObs{}
	}
	return serveObs{
		ob:        ob,
		reqEnergy: ob.Histogram(reqMetric, `endpoint="energy"`, reqHelp),
		reqSweep:  ob.Histogram(reqMetric, `endpoint="sweep"`, reqHelp),
		reqStream: ob.Histogram(reqMetric, `endpoint="stream"`, reqHelp),
		queueWait: ob.Histogram(queueMetric, "", queueHelp),
		surface:   ob.Histogram(stageMetric, `stage="surface"`, stageHelp),
		prepare:   ob.Histogram(stageMetric, `stage="prepare"`, stageHelp),
		eval:      ob.Histogram(stageMetric, `stage="eval"`, stageHelp),
		batch:     ob.Histogram(stageMetric, `stage="batch"`, stageHelp),
		// Stream stages carry mode="stream" so dashboards can split the
		// incremental per-frame latency series from one-shot evaluation.
		streamCreate: ob.Histogram(stageMetric, `stage="create",mode="stream"`, stageHelp),
		streamFrame:  ob.Histogram(stageMetric, `stage="frame",mode="stream"`, stageHelp),
	}
}

// spanID mints a request's root span ID up front so child stages can parent
// under it before the request's total duration is known. 0 when
// observability is off.
func (so *serveObs) spanID() uint64 {
	if so.ob == nil {
		return 0
	}
	return so.ob.NextID()
}

// request closes a completed request: the endpoint latency histogram plus
// the root span minted by spanID. name must be a constant ("serve.energy",
// "serve.sweep") so the off path builds no strings.
func (so *serveObs) request(h *obs.Histogram, name string, id uint64, start time.Time) {
	if so.ob == nil {
		return
	}
	d := time.Since(start)
	h.Observe(d)
	so.ob.Trace.RecordID(id, name, 0, 0, start, d)
}

// stage records one already-measured child stage: a histogram observation
// (h may be nil for span-only stages) and a span under parent.
func (so *serveObs) stage(h *obs.Histogram, name string, parent uint64, start time.Time, d time.Duration) {
	if so.ob == nil {
		return
	}
	if d < 0 {
		// Failed batches carry a zero start time; don't skew the sums.
		d = 0
	}
	h.Observe(d)
	so.ob.Record(name, parent, 0, start, d)
}

// mountDebug exposes the observability endpoints on the server mux:
// Prometheus metrics, the Chrome trace_event dump, and the pprof family.
// They are mounted raw — not through wrap — so scrapes and profiles keep
// working while the server drains.
func (s *Server) mountDebug(ob *obs.Observer) {
	s.mux.Handle("/metrics", ob.Reg.Handler())
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
