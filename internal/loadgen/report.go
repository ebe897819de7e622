package loadgen

import (
	"fmt"
	"math"
	"slices"
	"time"

	"octgb/internal/obs"
	"octgb/internal/serve"
)

// Report is one replay's outcome — the unit BENCH_slo.json commits and
// `cmd/loadgen -check` regresses against.
type Report struct {
	Trace string `json:"trace"`
	// Mode is "sim" (virtual time) or "live" (wall clock against a real
	// server).
	Mode  string `json:"mode"`
	Tuned bool   `json:"tuned"`

	// DurationS is the replay span in seconds (virtual or wall).
	DurationS float64 `json:"duration_s"`
	// WarmupS is the excluded start-up window (see SLOSpec.WarmupS): the
	// quantile and QPS fields below measure only operations completing
	// after it. Counters (Offered/Admitted/...) always cover the full run.
	WarmupS float64 `json:"warmup_s,omitempty"`

	// Offered is the trace's arrival count. Admitted counts admitted
	// operations (stream frames included, so it can exceed Offered);
	// Completed the operations that finished.
	Offered           int64 `json:"offered"`
	Admitted          int64 `json:"admitted"`
	Completed         int64 `json:"completed"`
	RejectedQueueFull int64 `json:"rejected_queue_full"`
	Shed              int64 `json:"shed"`
	// AbortedSessions counts stream sessions ended early by a rejected
	// frame.
	AbortedSessions int64 `json:"aborted_sessions,omitempty"`
	// EvictedSessions counts stream sessions ended by a frame answered
	// 404 not_found: the server evicted the session (its session cap) or
	// lost it with its shard. They are not failures.
	EvictedSessions int64 `json:"evicted_sessions,omitempty"`
	// Failed counts live-mode transport failures, error statuses other
	// than 429 and an evicted session's 404, and 200s whose body does not
	// decode.
	Failed int64 `json:"failed,omitempty"`

	// AdmittedQPS and the quantiles cover the completions measured after
	// the warm-up. Live quantiles are nearest-rank over every measured
	// latency; simulated ones are histogram bucket upper bounds (a factor
	// of 2 apart). QueueP99MS is simulated only: a live client cannot see
	// the server's queue.
	AdmittedQPS float64 `json:"admitted_qps"`
	P50MS       float64 `json:"p50_ms"`
	P95MS       float64 `json:"p95_ms"`
	P99MS       float64 `json:"p99_ms"`
	QueueP99MS  float64 `json:"queue_p99_ms,omitempty"`

	// PerShardQPS breaks AdmittedQPS down by serving shard when the live
	// run targets a fabric router (keyed by the X-Octgb-Worker response
	// header; see internal/fabric). Empty against a bare server.
	PerShardQPS map[string]float64 `json:"per_shard_qps,omitempty"`

	// Decisions is the tuner's deterministic decision log (tuned runs).
	Decisions []string `json:"decisions,omitempty"`
	// FinalKnobs are the admission knobs in force at the end of the run.
	FinalKnobs *serve.Knobs `json:"final_knobs,omitempty"`
}

// fillLatencyWindow derives the simulator's quantile and throughput fields
// from the completed-request and queue-wait histograms of a measurement
// window — post-warm-up snapshot diffs with their own completion count and
// span.
func (r *Report) fillLatencyWindow(req, queue obs.HistSnapshot, completed int64, span time.Duration) {
	r.P50MS = float64(req.Quantile(0.50)) / 1e6
	r.P95MS = float64(req.Quantile(0.95)) / 1e6
	r.P99MS = float64(req.Quantile(0.99)) / 1e6
	r.QueueP99MS = float64(queue.Quantile(0.99)) / 1e6
	if s := span.Seconds(); s > 0 {
		r.AdmittedQPS = float64(completed) / s
	}
}

// fillExactWindow derives the quantile and throughput fields from the
// latencies measured in a window of the given span. It sorts lats.
func (r *Report) fillExactWindow(lats []time.Duration, span time.Duration) {
	slices.Sort(lats)
	r.P50MS = nearestRankMS(lats, 0.50)
	r.P95MS = nearestRankMS(lats, 0.95)
	r.P99MS = nearestRankMS(lats, 0.99)
	if s := span.Seconds(); s > 0 {
		r.AdmittedQPS = float64(len(lats)) / s
	}
}

// nearestRankMS is the nearest-rank q-quantile (0 < q ≤ 1) of an
// ascending slice, in milliseconds: the ⌈q·n⌉-th smallest value. Empty
// input reads 0.
func nearestRankMS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return float64(sorted[rank-1]) / 1e6
}

// CheckSLO verifies a report against the objective: admitted p99 at or
// under the target, admitted throughput at or over the floor.
func (r *Report) CheckSLO(slo SLOSpec) error {
	if slo.P99MS > 0 && r.P99MS > slo.P99MS {
		return fmt.Errorf("loadgen: %s/%s p99 %.1fms exceeds SLO %.1fms", r.Trace, r.Mode, r.P99MS, slo.P99MS)
	}
	if slo.MinQPS > 0 && r.AdmittedQPS < slo.MinQPS {
		return fmt.Errorf("loadgen: %s/%s admitted %.2f qps under SLO floor %.2f", r.Trace, r.Mode, r.AdmittedQPS, slo.MinQPS)
	}
	return nil
}
