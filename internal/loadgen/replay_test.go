package loadgen

import (
	"bytes"
	"testing"
)

// lightSpec is a short single-class Poisson trace.
func lightSpec() *TraceSpec {
	return &TraceSpec{
		Name:     "light",
		Seed:     11,
		Requests: 200,
		Arrivals: ArrivalSpec{Process: ProcPoisson, RateHz: 40},
		Classes:  []ClassSpec{{Kind: KindEnergy, Weight: 1, Atoms: 150, Variants: 2}},
		Sim:      SimSpec{Workers: 2, Queue: 64, BatchWindowMS: 5},
	}
}

// overloadSpec is a bursty Pareto trace of 3 000 arrivals.
func overloadSpec() *TraceSpec {
	return &TraceSpec{
		Name:     "overload",
		Seed:     42,
		Requests: 3000,
		Arrivals: ArrivalSpec{Process: ProcPareto, RateHz: 300, Shape: 1.5},
		Classes:  []ClassSpec{{Kind: KindEnergy, Weight: 1, Atoms: 2000, Variants: 2}},
		Sim:      SimSpec{Workers: 2, Queue: 64, BatchWindowMS: 5},
		SLO:      SLOSpec{P99MS: 150, MinQPS: 80, WarmupS: 3},
	}
}

// TestGenerateReplay pins the generator's determinism contract: the same
// seeded spec generates a byte-identical request sequence.
func TestGenerateReplay(t *testing.T) {
	spec := overloadSpec()
	run := func() []byte {
		reqs, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		return Serialize(reqs)
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("request sequences differ between runs of the same spec")
	}
}

// TestGenerateSeedSensitivity: different seeds must actually change the
// sequence — a generator that ignores its seed would pass every replay
// test while testing nothing.
func TestGenerateSeedSensitivity(t *testing.T) {
	a := lightSpec()
	b := lightSpec()
	b.Seed = a.Seed + 1
	ra, err := Generate(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Generate(b)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(Serialize(ra), Serialize(rb)) {
		t.Fatal("seed change did not change the sequence")
	}
}
