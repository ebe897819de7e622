package simtime

import (
	"testing"
	"time"
)

// within asserts got is inside ±tol (fractional) of want.
func within(t *testing.T, name string, got, want time.Duration, tol float64) {
	t.Helper()
	lo := time.Duration(float64(want) * (1 - tol))
	hi := time.Duration(float64(want) * (1 + tol))
	if got < lo || got > hi {
		t.Errorf("%s = %v, want %v ±%.0f%%", name, got, want, tol*100)
	}
}

// TestServeCostsCalibration pins the model to its calibration anchors (see
// ServeCosts): the surrogates must reproduce the measured service times
// they were calibrated on.
func TestServeCostsCalibration(t *testing.T) {
	sc := DefaultServeCosts()

	// Cold prepare at 2500 atoms measured 717 ms; warm eval 21.4 ms.
	cold := sc.Energy(2500, true) - sc.Energy(2500, false)
	within(t, "cold build 2500", cold, 717*time.Millisecond, 0.10)
	within(t, "warm eval 2500", sc.Energy(2500, false), 21400*time.Microsecond, 0.10)

	// 64 batched poses on a 1250-atom complex measured 11.44 s total.
	within(t, "sweep batch 64×1250", sc.SweepBatch(1250, 64, true), 11440*time.Millisecond, 0.10)

	// Stream: create at 4000 atoms measured 659 ms, a 10-mover frame 43.5 ms.
	within(t, "stream create 4000", sc.StreamCreate(4000), 659*time.Millisecond, 0.10)
	within(t, "stream frame 10", sc.StreamFrame(10), 43500*time.Microsecond, 0.10)
}

// TestServeCostsShape checks the structural relations the simulator leans
// on: cold ≫ warm, costs grow with size, batches amortize the prepare, and
// incremental frames are far cheaper than re-evaluating the molecule.
func TestServeCostsShape(t *testing.T) {
	sc := DefaultServeCosts()

	if sc.Energy(2500, true) < 10*sc.Energy(2500, false) {
		t.Errorf("cold/warm ratio too small: %v vs %v", sc.Energy(2500, true), sc.Energy(2500, false))
	}
	if sc.Energy(500, false) >= sc.Energy(5000, false) {
		t.Error("warm eval not monotone in atoms")
	}

	// Batching: one 8-pose batch must beat eight 1-pose batches (the
	// shared prepare is paid once).
	batched := sc.SweepBatch(1250, 8, true)
	sequential := 8 * sc.SweepBatch(1250, 1, true)
	if batched >= sequential {
		t.Errorf("batch does not amortize: %v vs %v sequential", batched, sequential)
	}

	// A 10-mover frame on a 4000-atom session is far cheaper than
	// re-preparing the session from scratch (the incremental engine's
	// reason to exist; measured 7.5×, modeled well past 5×).
	if 5*sc.StreamFrame(10) >= sc.StreamCreate(4000) {
		t.Errorf("frame %v not ≪ re-create %v", sc.StreamFrame(10), sc.StreamCreate(4000))
	}

	// Zero-size inputs degenerate to the fixed overheads, never negative.
	if sc.Energy(0, false) <= 0 || sc.StreamFrame(0) <= 0 {
		t.Error("zero-size costs must still charge the request envelope")
	}
}
