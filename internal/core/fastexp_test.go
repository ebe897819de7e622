package core

import (
	"math"
	"testing"
)

// TestExpNegAccuracy bounds the table-driven exponential against
// math.Exp over the kernel's operating range. The near-field argument is
// −d²/(4RᵢRⱼ) ∈ (−∞, 0], but terms beyond x ≈ −30 are already below
// energy noise; the bounds are tight where it matters and merely sane in
// the deep tail.
func TestExpNegAccuracy(t *testing.T) {
	const samples = 400000
	var worstNear, worstFar float64
	for i := 0; i <= samples; i++ {
		x := -200.0 * float64(i) / samples
		want := math.Exp(x)
		e := math.Abs(expNeg(x)-want) / want
		if x >= -30 {
			if e > worstNear {
				worstNear = e
			}
		} else if e > worstFar {
			worstFar = e
		}
	}
	t.Logf("expNeg worst rel err: %.3g (|x|≤30), %.3g (tail)", worstNear, worstFar)
	if worstNear > 5e-15 {
		t.Errorf("expNeg |x|≤30: worst rel err %v > 5e-15", worstNear)
	}
	if worstFar > 3e-14 {
		t.Errorf("expNeg tail: worst rel err %v > 3e-14", worstFar)
	}
}

// TestExpNegEdgeValues pins the exact values the kernels rely on: e⁰ = 1
// (the self-pair lane evaluates exp(−0) and the diagonal correction
// assumes the result is exactly 1.0) and NaN propagation (the Restrict
// poison proof flows NaN coordinates through the exponential).
func TestExpNegEdgeValues(t *testing.T) {
	if got := expNeg(0); got != 1.0 {
		t.Errorf("expNeg(0) = %v, want exactly 1.0", got)
	}
	if got := expNeg(math.Copysign(0, -1)); got != 1.0 {
		t.Errorf("expNeg(-0) = %v, want exactly 1.0", got)
	}
	if got := expNeg(math.NaN()); !math.IsNaN(got) {
		t.Errorf("expNeg(NaN) = %v, want NaN", got)
	}
}
