package loadgen

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Request is one generated arrival: what to send and when. Times are
// offsets from the trace start; RunLive maps them onto the wall clock.
type Request struct {
	// ID is the arrival index (0-based, in time order).
	ID int
	// At is the arrival offset from trace start.
	At time.Duration
	// Kind is the class kind ("energy", "sweep", "stream").
	Kind string
	// Class is the index into TraceSpec.Classes.
	Class int
	// Variant selects which of the class's molecules this request targets
	// (cache-key diversity).
	Variant int
	// Atoms / Poses / Frames / Movers are copied from the class.
	Atoms, Poses, Frames, Movers int
}

// Generate expands a validated spec into its arrival sequence. It is a
// pure function of the spec: the same spec yields the identical slice on
// every run and every platform (pinned by TestGenerateReplay). The rng
// draw order is part of that contract — one gap draw, one class draw, one
// variant draw per request, always in that order.
func Generate(spec *TraceSpec) ([]Request, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	var totalW float64
	for _, c := range spec.Classes {
		totalW += c.Weight
	}

	reqs := make([]Request, spec.Requests)
	var t time.Duration
	for i := range reqs {
		t += sampleGap(rng, spec.Arrivals)
		ci := sampleClass(rng, spec.Classes, totalW)
		c := spec.Classes[ci]
		variants := c.Variants
		if variants <= 0 {
			variants = 1
		}
		reqs[i] = Request{
			ID:      i,
			At:      t,
			Kind:    c.Kind,
			Class:   ci,
			Variant: rng.Intn(variants),
			Atoms:   c.Atoms,
			Poses:   c.Poses,
			Frames:  c.Frames,
			Movers:  c.Movers,
		}
	}
	return reqs, nil
}

// sampleGap draws one inter-arrival gap. All three processes share the
// mean 1/RateHz; they differ in burstiness.
func sampleGap(rng *rand.Rand, a ArrivalSpec) time.Duration {
	mean := 1 / a.RateHz
	var gap float64
	switch a.Process {
	case ProcPareto:
		// Pareto(x_m, α) by inversion: x_m / U^{1/α}, with the scale x_m
		// chosen so the mean x_m·α/(α−1) equals the configured mean.
		alpha := a.shape()
		xm := mean * (alpha - 1) / alpha
		u := rng.Float64()
		if u == 0 {
			u = math.SmallestNonzeroFloat64
		}
		gap = xm / math.Pow(u, 1/alpha)
	case ProcLognormal:
		// Lognormal(μ, σ) with μ = ln(mean) − σ²/2 so E = mean.
		sigma := a.sigma()
		mu := math.Log(mean) - sigma*sigma/2
		gap = math.Exp(mu + sigma*rng.NormFloat64())
	default: // poisson
		gap = rng.ExpFloat64() * mean
	}
	// Clamp the tail: one pathological draw must not stall the whole
	// trace. 100× the mean keeps the burst structure intact. The
	// condition is written so NaN (possible from extreme but valid
	// lognormal parameters) also lands on the clamp.
	if max := 100 * mean; !(gap >= 0 && gap <= max) {
		gap = max
	}
	return time.Duration(gap * float64(time.Second))
}

// sampleClass draws a class index proportionally to the weights.
func sampleClass(rng *rand.Rand, classes []ClassSpec, totalW float64) int {
	x := rng.Float64() * totalW
	for i, c := range classes {
		x -= c.Weight
		if x < 0 {
			return i
		}
	}
	return len(classes) - 1
}

// Serialize renders the arrival sequence in a canonical text form, one
// line per request with nanosecond arrival offsets. Two runs replayed the
// same trace if and only if their serializations are byte-identical — the
// determinism tests compare exactly this.
func Serialize(reqs []Request) []byte {
	var buf bytes.Buffer
	for _, r := range reqs {
		fmt.Fprintf(&buf, "%d at=%dns kind=%s class=%d variant=%d atoms=%d poses=%d frames=%d movers=%d\n",
			r.ID, r.At.Nanoseconds(), r.Kind, r.Class, r.Variant, r.Atoms, r.Poses, r.Frames, r.Movers)
	}
	return buf.Bytes()
}
