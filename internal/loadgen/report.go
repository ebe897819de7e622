package loadgen

import (
	"math"
	"slices"
	"time"

	"octgb/internal/serve"
)

// Report is one live replay's outcome, as `cmd/loadgen -o` writes it.
type Report struct {
	Trace string `json:"trace"`
	Tuned bool   `json:"tuned"`

	// DurationS is the replay's wall-clock span in seconds.
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
	// the warm-up. The quantiles are nearest-rank over every measured
	// latency, as the client saw it.
	AdmittedQPS float64 `json:"admitted_qps"`
	P50MS       float64 `json:"p50_ms"`
	P95MS       float64 `json:"p95_ms"`
	P99MS       float64 `json:"p99_ms"`

	// PerShardQPS breaks AdmittedQPS down by serving shard when the live
	// run targets a fabric router (keyed by the X-Octgb-Worker response
	// header; see internal/fabric). Empty against a bare server.
	PerShardQPS map[string]float64 `json:"per_shard_qps,omitempty"`

	// Decisions is the tuner's deterministic decision log (tuned runs).
	Decisions []string `json:"decisions,omitempty"`
	// FinalKnobs are the admission knobs in force at the end of the run.
	FinalKnobs *serve.Knobs `json:"final_knobs,omitempty"`
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
