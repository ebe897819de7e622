// Package obs is the zero-dependency observability layer of the library:
// the instrumentation substrate that makes the paper's central claim — the
// breakdown of runtime into Born-radius treecode, E_pol treecode and
// communication across ranks and cores — visible on a live deployment
// instead of only in ad-hoc bench binaries.
//
// It provides three primitives, all safe for concurrent use:
//
//   - Histogram: a lock-free fixed-bucket latency histogram (power-of-two
//     bucket boundaries, atomic counters). p50/p95/p99 are derivable from a
//     Snapshot, and the Registry renders it in Prometheus exposition
//     format with cumulative le buckets.
//   - Tracer: lightweight begin/end span recording against a monotonic
//     clock, with parent IDs and an in-memory ring buffer dumpable as
//     Chrome trace_event JSON (load the dump in chrome://tracing or
//     https://ui.perfetto.dev).
//   - Registry: a named-metric registry (counters, gauges, histograms)
//     that renders the Prometheus text format on GET /metrics.
//
// An Observer bundles one Registry and one Tracer and is the handle the
// instrumented layers share: engine.Options.Observe, cluster.WithObserver
// and serve.Config.Observe all accept/construct one. Every method of
// Observer, Histogram, Counter and Tracer is nil-receiver safe and a
// no-op, so instrumented code paths need no conditionals and the engine's
// observability-off path costs a nil check — no allocations, no atomics,
// bitwise-identical numerical results (pinned by the engine golden tests).
//
// The serving tier counts differently: each serve.Server and
// fabric.Router owns a Registry of its own, records every event there
// once whether or not an Observer is attached, and renders its /stats
// from the same handles; with an Observer, /metrics renders that registry
// and then the Observer's (Handler).
//
// Metric name inventory (see DESIGN.md §10 for the full table and the
// /stats field each family backs):
//
//	octgb_engine_phase_seconds{phase,rank}        engine phase latency
//	octgb_sched_{executed,steals,failed_steals,parks}_total
//	octgb_cluster_collective_seconds{kind,rank}   per-collective latency
//	octgb_cluster_collective_bytes_total{kind,rank}
//	octgb_cluster_heartbeat_gap_seconds{peer}     liveness signal spacing
//	octgb_serve_request_seconds{endpoint}         end-to-end request latency
//	octgb_serve_queue_wait_seconds                admission queue wait
//	octgb_serve_stage_seconds{stage[,mode]}       surface/prepare/eval/build/batch, stream create/frame
//	octgb_serve_*_total, octgb_serve_* gauges     every /stats counter and gauge
//	octgb_engine_recycled_bytes                   gauge: bytes core.Free holds
//	octgb_fabric_*_total, octgb_fabric_workers    every router /stats counter and the ring size
//	octgb_fabric_upstream_seconds{worker}         upstream latency by shard
//	octgb_fabric_hedge_upstream_seconds           upstream latency, all shards (hedge delay)
package obs

import "time"

// DefaultTraceCapacity is the span ring-buffer size an Observer's Tracer is
// created with: large enough to hold several complete request traces, small
// enough (~64 B/span) to be always-on.
const DefaultTraceCapacity = 4096

// Observer bundles a metric Registry and a span Tracer — the handle the
// instrumented layers (engine, cluster, serve, the daemons) share. A nil
// *Observer is valid and turns every method into a no-op, which is how the
// observability-off path stays free: callers hold a nil Observer instead of
// branching at every site.
type Observer struct {
	// Reg is the metric registry rendered on GET /metrics.
	Reg *Registry
	// Trace is the span ring buffer dumped on GET /debug/trace.
	Trace *Tracer
}

// New returns an Observer with a fresh Registry and a Tracer of
// DefaultTraceCapacity.
func New() *Observer {
	return &Observer{Reg: NewRegistry(), Trace: NewTracer(DefaultTraceCapacity)}
}

// Histogram returns the named histogram from the registry, creating it on
// first use. Returns nil (whose Observe is a no-op) on a nil Observer.
func (o *Observer) Histogram(name, labels, help string) *Histogram {
	if o == nil {
		return nil
	}
	return o.Reg.Histogram(name, labels, help)
}

// Counter returns the named counter from the registry, creating it on first
// use. Returns nil (whose Add/Inc are no-ops) on a nil Observer.
func (o *Observer) Counter(name, labels, help string) *Counter {
	if o == nil {
		return nil
	}
	return o.Reg.Counter(name, labels, help)
}

// Begin opens a live span (ended by (*Live).End). Returns nil on a nil
// Observer; a nil *Live is safe to End and has ID 0.
func (o *Observer) Begin(name string, parent uint64, tid int) *Live {
	if o == nil {
		return nil
	}
	return o.Trace.Begin(name, parent, tid)
}

// Record stores an already-measured span (retroactive recording — the
// instrumented phase loops of the engine measure with their own lap clocks
// and hand the result over). Returns the span's ID, or 0 on a nil Observer.
func (o *Observer) Record(name string, parent uint64, tid int, start time.Time, d time.Duration) uint64 {
	if o == nil {
		return 0
	}
	return o.Trace.Record(name, parent, tid, start, d)
}

// NextID mints a span ID without recording anything — used to name a root
// span up front so children can reference it before the root's duration is
// known. Returns 0 on a nil Observer.
func (o *Observer) NextID() uint64 {
	if o == nil {
		return 0
	}
	return o.Trace.NextID()
}
