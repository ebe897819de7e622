package cluster

import (
	"strconv"
	"time"

	"octgb/internal/obs"
)

// Metric names and help strings recorded by the transports (full inventory
// in DESIGN.md §10).
const (
	collLatMetric   = "octgb_cluster_collective_seconds"
	collLatHelp     = "Wall-clock latency of one completed collective on one rank."
	collBytesMetric = "octgb_cluster_collective_bytes_total"
	collBytesHelp   = "Payload bytes moved through completed collectives, per kind and rank."
	hbGapMetric     = "octgb_cluster_heartbeat_gap_seconds"
	hbGapHelp       = "Spacing between consecutive heartbeat frames received from a peer. Heartbeats are one-way (no echo), so the gap distribution — nominally timeout/3 — is the liveness health signal: a fattening tail means the peer or the link is slowing toward the failure deadline."
)

// recordCollective records one completed collective: latency histogram,
// payload byte counter and a trace span, all labeled {kind, rank}. No-op on
// a nil observer — the label concatenation only happens when recording.
func recordCollective(ob *obs.Observer, kind string, rank, words int, start time.Time) {
	if ob == nil {
		return
	}
	d := time.Since(start)
	labels := `kind="` + kind + `",rank="` + strconv.Itoa(rank) + `"`
	ob.Histogram(collLatMetric, labels, collLatHelp).Observe(d)
	ob.Counter(collBytesMetric, labels, collBytesHelp).Add(int64(words) * 8)
	ob.Record("cluster."+kind, 0, rank, start, d)
}

// recordHeartbeatGap records the spacing between two consecutive heartbeat
// frames from peer. Called at heartbeat rate (timeout/3), so the registry
// lookup per observation is negligible.
func recordHeartbeatGap(ob *obs.Observer, peer int, gap time.Duration) {
	if ob == nil || peer < 0 {
		return
	}
	ob.Histogram(hbGapMetric, `peer="`+strconv.Itoa(peer)+`"`, hbGapHelp).Observe(gap)
}
