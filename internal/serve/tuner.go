package serve

import (
	"fmt"
	"time"
)

// SLO is an explicit service-level objective for the admitted request
// stream: the p99 end-to-end latency the tier must stay under while
// admitting at least MinQPS requests per second. The tuner trades the two
// off deliberately — shedding load lowers p99 and costs throughput,
// widening the batch window buys throughput and costs latency — so both
// sides of the objective are stated instead of implied.
type SLO struct {
	// P99 is the target 99th-percentile request latency for admitted
	// requests (queue wait + evaluation).
	P99 time.Duration `json:"p99"`
	// MinQPS is the admitted-throughput floor in requests per second.
	MinQPS float64 `json:"min_qps"`
}

// TunerConfig configures the closed-loop admission tuner. The tuner reads
// the serving layer's own latency histograms (the obs layer PR 5 added —
// queue wait and per-endpoint request latency) as window diffs every
// Interval and adjusts three knobs against the SLO: the sweep batch
// window, the effective submission-queue depth, and the shed-load
// threshold. Decisions use integer/bucket arithmetic only and are appended
// to a decision log that records every input as well: stepping a fresh
// tuner through a live run's logged windows reproduces its log (pinned by
// TestTunerReplaysLiveLog on a committed live run).
type TunerConfig struct {
	// SLO is the objective; a zero P99 disables the tuner.
	SLO SLO
	// Interval is how often the control loop samples and decides
	// (default 1s).
	Interval time.Duration
	// Hysteresis is how many consecutive breach (or slack) intervals must
	// accumulate before the tuner acts (default 2). One noisy window never
	// moves a knob.
	Hysteresis int
	// MinQueue / MaxQueue bound the effective queue-depth knob
	// (defaults: 2×workers and the configured MaxQueue).
	MinQueue, MaxQueue int
	// MinBatchWindow / MaxBatchWindow bound the sweep batch-window knob
	// (defaults: 1ms and max(4×configured window, SLO.P99/4)).
	MinBatchWindow, MaxBatchWindow time.Duration
}

func (c TunerConfig) withDefaults(workers, maxQueue int, batchWindow time.Duration) TunerConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = 2
	}
	if c.MinQueue <= 0 {
		c.MinQueue = 2 * workers
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = maxQueue
	}
	if c.MinQueue > c.MaxQueue {
		c.MinQueue = c.MaxQueue
	}
	if c.MinBatchWindow <= 0 {
		c.MinBatchWindow = time.Millisecond
	}
	if c.MaxBatchWindow <= 0 {
		c.MaxBatchWindow = 4 * batchWindow
		if q := c.SLO.P99 / 4; q > c.MaxBatchWindow {
			c.MaxBatchWindow = q
		}
	}
	return c
}

// Knobs are the tunable admission-control parameters. The server reads
// them through atomics on every admission decision; the tuner owns writes.
type Knobs struct {
	// BatchWindow is how long a sweep batch coalesces before flushing.
	// Wider windows merge more requests into one shared-prepare run
	// (throughput ↑) at up to one window of added latency per request.
	BatchWindow time.Duration `json:"batch_window"`
	// QueueLimit is the effective submission-queue depth: admissions past
	// it are rejected 429 even though the channel has capacity. Shorter
	// queues bound queue wait directly (Little's law) at the risk of
	// idling workers between bursts.
	QueueLimit int `json:"queue_limit"`
	// ShedLatency sheds load early: an arrival whose estimated queue wait
	// (depth/workers × observed mean evaluation) exceeds it is rejected
	// with shed_load before it can blow the latency budget of everything
	// behind it. Zero disables shedding.
	ShedLatency time.Duration `json:"shed_latency"`
}

// TunerInputs is one control window's observations, which the server
// derives from the window diffs of its histograms and counters. The
// window's Decision prints every field, so a decision log is also the
// record of what the tuner saw, and replays.
type TunerInputs struct {
	// P99 is the window's request-latency p99 over all endpoints, a
	// histogram bucket bound; it is zero only when no request finished,
	// which makes the window idle. QueueP99 is the queue-wait p99.
	P99, QueueP99 time.Duration
	// AdmittedQPS is the window's completions per second.
	AdmittedQPS float64
	// Shed is the window's shed_load rejection count.
	Shed uint64
}

// Decision is one tuner step's outcome, recorded in the decision log. The
// String form is the replay contract: a fresh tuner stepped through the
// inputs a log prints must print the same log.
type Decision struct {
	Step        int           `json:"step"`
	P99         time.Duration `json:"p99"`
	QueueP99    time.Duration `json:"queue_p99"`
	AdmittedQPS float64       `json:"admitted_qps"`
	Shed        uint64        `json:"shed"`
	Action      string        `json:"action"`
	Reason      string        `json:"reason"`
	Knobs       Knobs         `json:"knobs"`
}

// String renders the decision in the fixed format the determinism tests
// compare. AdmittedQPS is printed at fixed precision so float formatting
// can never make two identical runs diverge textually.
func (d Decision) String() string {
	return fmt.Sprintf("step=%d p99=%v queue_p99=%v qps=%.3f shed=%d action=%s batch=%v queue=%d shed_at=%v reason=%q",
		d.Step, d.P99, d.QueueP99, d.AdmittedQPS, d.Shed, d.Action,
		d.Knobs.BatchWindow, d.Knobs.QueueLimit, d.Knobs.ShedLatency, d.Reason)
}

// Tuner is the closed-loop admission controller: a pure, deterministic
// state machine over window observations. It is not safe for concurrent
// use: the server serializes Step calls on its control goroutine.
//
// The control law is additive-increase/multiplicative-decrease with
// hysteresis, split by where the latency lives:
//
//   - Sustained p99 breach with the queue dominating (queue-wait p99 over
//     half the request p99): the backlog is the problem — shrink the
//     effective queue to ¾ and arm/tighten the shed threshold at half the
//     SLO budget, so bursts are turned away instead of parked.
//   - Sustained breach with evaluation dominating: admission cannot help;
//     widen the sweep batch window (×2, capped) so coalescing buys
//     capacity, and still arm shedding as the backstop.
//   - Sustained slack (p99 under 70% of target): relax a quarter step —
//     grow the queue, raise the shed threshold, and (only if throughput is
//     short of MinQPS) widen the batch window — reclaiming throughput the
//     tight settings may have cost.
//
// Every move is bounded by the config's min/max rails, so the tuner can
// never wedge the server into rejecting everything or buffering unbounded.
type Tuner struct {
	cfg   TunerConfig
	knobs Knobs
	step  int

	breachStreak int
	slackStreak  int

	log []Decision
}

// NewTuner returns a tuner starting from the given knob settings
// (typically the server's configured defaults — the untuned baseline).
func NewTuner(cfg TunerConfig, initial Knobs) *Tuner {
	return &Tuner{cfg: cfg, knobs: initial}
}

// newTuner builds the tuner a server with the defaulted configuration cfg
// runs: its config resolved against the server's sizing, its knobs
// starting at the configured batch window and queue depth.
func newTuner(cfg Config) *Tuner {
	tc := cfg.Tuner.withDefaults(cfg.Workers, cfg.MaxQueue, cfg.BatchWindow)
	return NewTuner(tc, Knobs{BatchWindow: cfg.BatchWindow, QueueLimit: cfg.MaxQueue})
}

// Knobs returns the current knob settings.
func (t *Tuner) Knobs() Knobs { return t.knobs }

// Log returns the decision log (every Step appends exactly one entry).
func (t *Tuner) Log() []Decision { return t.log }

// maxTunerLog bounds the in-memory decision log of a long-running server:
// past it the older half is dropped. Far above any load-harness run, so
// replay comparisons always see complete logs.
const maxTunerLog = 4096

// Step consumes one window's observations, possibly moves the knobs, and
// returns (and logs) the decision. Deterministic: equal input sequences
// yield equal logs.
func (t *Tuner) Step(in TunerInputs) Decision {
	t.step++
	d := Decision{Step: t.step, Shed: in.Shed, Knobs: t.knobs}
	defer func() {
		if len(t.log) >= maxTunerLog {
			t.log = append(t.log[:0], t.log[maxTunerLog/2:]...)
		}
		t.log = append(t.log, d)
	}()

	if in.P99 == 0 {
		// Nothing completed this window: no evidence, no action. Streaks
		// hold — an idle gap inside a breach should not launder it.
		d.Action, d.Reason = "idle", "no completions in window"
		return d
	}
	d.P99, d.QueueP99, d.AdmittedQPS = in.P99, in.QueueP99, in.AdmittedQPS

	switch {
	case d.P99 > t.cfg.SLO.P99:
		t.breachStreak++
		t.slackStreak = 0
	case d.P99 <= (7*t.cfg.SLO.P99)/10:
		t.slackStreak++
		t.breachStreak = 0
	default:
		t.breachStreak, t.slackStreak = 0, 0
	}

	switch {
	case t.breachStreak >= t.cfg.Hysteresis:
		t.breachStreak = 0
		queueBound := d.QueueP99*2 >= d.P99
		k := t.knobs
		if queueBound {
			k.QueueLimit = maxInt(t.cfg.MinQueue, (3*k.QueueLimit)/4)
			k.ShedLatency = t.tightenShed(k.ShedLatency)
			d.Action = "tighten_queue"
			d.Reason = "p99 over SLO, queue-wait dominated"
		} else {
			k.BatchWindow = minDur(t.cfg.MaxBatchWindow, 2*k.BatchWindow)
			k.ShedLatency = t.tightenShed(k.ShedLatency)
			d.Action = "widen_batch"
			d.Reason = "p99 over SLO, evaluation dominated"
		}
		t.knobs, d.Knobs = k, k
	case t.slackStreak >= t.cfg.Hysteresis:
		t.slackStreak = 0
		k := t.knobs
		k.QueueLimit = minInt(t.cfg.MaxQueue, k.QueueLimit+maxInt(1, k.QueueLimit/4))
		if k.ShedLatency > 0 {
			k.ShedLatency = minDur(t.cfg.SLO.P99, (5*k.ShedLatency)/4)
		}
		if d.AdmittedQPS < t.cfg.SLO.MinQPS {
			k.BatchWindow = minDur(t.cfg.MaxBatchWindow, (5*k.BatchWindow)/4)
		}
		if k == t.knobs {
			d.Action, d.Reason = "hold", "slack but knobs at rails"
		} else {
			d.Action, d.Reason = "relax", "p99 under 70% of SLO"
		}
		t.knobs, d.Knobs = k, k
	default:
		d.Action, d.Reason = "hold", "within hysteresis band"
	}
	return d
}

// tightenShed arms the shed threshold at half the SLO budget, or tightens
// an armed one by ¾ down to an eighth of the budget.
func (t *Tuner) tightenShed(cur time.Duration) time.Duration {
	if cur == 0 || cur > t.cfg.SLO.P99/2 {
		return t.cfg.SLO.P99 / 2
	}
	return maxDur(t.cfg.SLO.P99/8, (3*cur)/4)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
