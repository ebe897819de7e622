// Package loadgen is the trace-driven load harness for the serving tier:
// a deterministic, seeded, open-loop request generator and one replay,
// RunLive, which drives a real serve.Server (or a fabric router) over HTTP
// on the wall clock.
//
// A trace is a JSON TraceSpec: a seed, an arrival process (heavy-tailed
// Pareto or lognormal, or Poisson), and a weighted mix of request classes
// (single-molecule evaluations, pose sweeps, incremental stream sessions).
// Generate is a pure function of the spec, so every run offers the same
// request sequence. Latencies are measured, not modelled: the tuner's
// regression gate replays a live run's decision log (internal/serve's
// TestTunerReplaysLiveLog).
package loadgen

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// Arrival processes.
const (
	ProcPareto    = "pareto"
	ProcLognormal = "lognormal"
	ProcPoisson   = "poisson"
)

// Request-class kinds.
const (
	KindEnergy = "energy"
	KindSweep  = "sweep"
	KindStream = "stream"
)

// maxTraceRequests bounds a spec so a corrupt or adversarial trace cannot
// allocate unbounded memory during Generate.
const maxTraceRequests = 1 << 20

// ArrivalSpec describes the open-loop inter-arrival process. Open-loop
// means arrivals do not wait for responses — the generator keeps offering
// load at the configured rate even when the server is drowning, which is
// exactly the regime admission control exists for.
type ArrivalSpec struct {
	// Process is "pareto" (heavy-tailed bursts), "lognormal" (skewed but
	// lighter tail) or "poisson" (memoryless baseline).
	Process string `json:"process"`
	// RateHz is the mean offered rate in requests per second of trace
	// time.
	RateHz float64 `json:"rate_hz"`
	// Shape is the Pareto tail index α (> 1 so the mean exists;
	// default 1.5 — bursty). Smaller α → heavier tail.
	Shape float64 `json:"shape,omitempty"`
	// Sigma is the lognormal log-scale σ (default 1.0).
	Sigma float64 `json:"sigma,omitempty"`
}

// ClassSpec is one request class in the mix.
type ClassSpec struct {
	// Kind is "energy", "sweep" or "stream".
	Kind string `json:"kind"`
	// Weight is the class's share of the mix (relative, > 0).
	Weight float64 `json:"weight"`
	// Atoms is the molecule size for this class.
	Atoms int `json:"atoms"`
	// Poses is the pose count per sweep request (sweep only).
	Poses int `json:"poses,omitempty"`
	// Frames is the closed-loop frame count per session (stream only).
	Frames int `json:"frames,omitempty"`
	// Movers is the atoms moved per frame (stream only).
	Movers int `json:"movers,omitempty"`
	// Variants is how many distinct molecules the class draws from
	// (default 1). More variants → more prepared-cache misses.
	Variants int `json:"variants,omitempty"`
}

// SimSpec sizes the server cmd/loadgen boots in-process for a live
// replay. Zero fields default to the serve layer's own defaults. The JSON
// name "sim" is kept so committed traces still parse.
type SimSpec struct {
	// Workers is the worker-pool size.
	Workers int `json:"workers,omitempty"`
	// Queue is the submission-queue capacity.
	Queue int `json:"queue,omitempty"`
	// BatchWindowMS is the sweep coalescing window.
	BatchWindowMS float64 `json:"batch_window_ms,omitempty"`
}

// SLOSpec is the objective the trace is checked against (and the tuner,
// when enabled, steers toward).
type SLOSpec struct {
	// P99MS is the admitted-request p99 latency target in milliseconds.
	P99MS float64 `json:"p99_ms"`
	// MinQPS is the admitted-throughput floor in requests per second.
	MinQPS float64 `json:"min_qps"`
	// WarmupS excludes the run's first seconds from the reported
	// quantiles and throughput: cold cache builds and the tuner's
	// convergence transient are start-up costs, not steady-state
	// behavior, and an SLO is a steady-state contract. The replay still
	// executes (and the tuner still observes) the warm-up — only the
	// report's measurement window starts after it.
	WarmupS float64 `json:"warmup_s,omitempty"`
}

// TraceSpec is a replayable load trace: everything Generate needs to
// produce the identical request sequence on every machine, every run.
type TraceSpec struct {
	Name     string      `json:"name"`
	Seed     int64       `json:"seed"`
	Requests int         `json:"requests"`
	Arrivals ArrivalSpec `json:"arrivals"`
	Classes  []ClassSpec `json:"classes"`
	Sim      SimSpec     `json:"sim,omitempty"`
	SLO      SLOSpec     `json:"slo,omitempty"`
}

// ParseTraceSpec decodes and validates a trace spec. Unknown fields are
// rejected — a typoed knob silently ignored would make two hosts replay
// different traces while believing they ran the same one.
func ParseTraceSpec(data []byte) (*TraceSpec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var spec TraceSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("loadgen: parse trace: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("loadgen: parse trace: trailing data after spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// finitePos reports whether v is a finite number > 0.
func finitePos(v float64) bool {
	return v > 0 && !math.IsInf(v, 1) && !math.IsNaN(v)
}

// Validate checks the spec. Every malformed input yields an error, never a
// panic — pinned by FuzzTraceSpec.
func (s *TraceSpec) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("loadgen: trace %q: %s", s.Name, fmt.Sprintf(format, args...))
	}
	if s.Name == "" {
		return fail("name is required")
	}
	if s.Seed < 0 {
		return fail("seed %d is negative; seeds are non-negative so specs stay portable across rng implementations", s.Seed)
	}
	if s.Requests <= 0 || s.Requests > maxTraceRequests {
		return fail("requests %d outside (0, %d]", s.Requests, maxTraceRequests)
	}
	a := s.Arrivals
	switch a.Process {
	case ProcPareto:
		if a.Shape != 0 && (!finitePos(a.Shape) || a.Shape <= 1 || a.Shape > 1000) {
			return fail("pareto shape %v outside (1, 1000] (finite mean)", a.Shape)
		}
	case ProcLognormal:
		if a.Sigma != 0 && (!finitePos(a.Sigma) || a.Sigma > 20) {
			return fail("lognormal sigma %v outside (0, 20]", a.Sigma)
		}
	case ProcPoisson:
	default:
		return fail("unknown arrival process %q", a.Process)
	}
	// The rate bounds keep 1/rate, the 100×mean gap clamp, and the
	// cumulative trace span all far inside time.Duration's range.
	if !finitePos(a.RateHz) || a.RateHz < 1e-6 || a.RateHz > 1e9 {
		return fail("rate_hz %v outside [1e-6, 1e9]", a.RateHz)
	}
	if float64(s.Requests)/a.RateHz > 3e7 {
		return fail("trace span %g s exceeds 3e7 s (requests/rate_hz)", float64(s.Requests)/a.RateHz)
	}
	if len(s.Classes) == 0 {
		return fail("at least one request class is required")
	}
	for i, c := range s.Classes {
		cf := func(format string, args ...any) error {
			return fail("class %d (%s): %s", i, c.Kind, fmt.Sprintf(format, args...))
		}
		if !finitePos(c.Weight) {
			return cf("weight %v must be finite and > 0", c.Weight)
		}
		if c.Atoms <= 0 || c.Atoms > 200000 {
			return cf("atoms %d outside (0, 200000]", c.Atoms)
		}
		if c.Variants < 0 {
			return cf("variants %d is negative", c.Variants)
		}
		switch c.Kind {
		case KindEnergy:
		case KindSweep:
			if c.Poses <= 0 || c.Poses > 4096 {
				return cf("poses %d outside (0, 4096]", c.Poses)
			}
		case KindStream:
			if c.Frames <= 0 || c.Frames > 4096 {
				return cf("frames %d outside (0, 4096]", c.Frames)
			}
			if c.Movers <= 0 || c.Movers > c.Atoms {
				return cf("movers %d outside (0, atoms]", c.Movers)
			}
		default:
			return cf("unknown kind")
		}
	}
	if s.Sim.Workers < 0 || s.Sim.Queue < 0 || s.Sim.BatchWindowMS < 0 ||
		math.IsNaN(s.Sim.BatchWindowMS) || math.IsInf(s.Sim.BatchWindowMS, 1) {
		return fail("sim parameters must be non-negative and finite")
	}
	if s.SLO.P99MS < 0 || math.IsNaN(s.SLO.P99MS) || math.IsInf(s.SLO.P99MS, 1) ||
		s.SLO.MinQPS < 0 || math.IsNaN(s.SLO.MinQPS) || math.IsInf(s.SLO.MinQPS, 1) ||
		s.SLO.WarmupS < 0 || math.IsNaN(s.SLO.WarmupS) || math.IsInf(s.SLO.WarmupS, 1) {
		return fail("slo parameters must be non-negative and finite")
	}
	return nil
}

// shape returns the Pareto tail index with the default applied.
func (a ArrivalSpec) shape() float64 {
	if a.Shape == 0 {
		return 1.5
	}
	return a.Shape
}

// sigma returns the lognormal σ with the default applied.
func (a ArrivalSpec) sigma() float64 {
	if a.Sigma == 0 {
		return 1.0
	}
	return a.Sigma
}
