package gb

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func posGen(scale float64) func(v []reflect.Value, r *rand.Rand) {
	return func(v []reflect.Value, r *rand.Rand) {
		for i := range v {
			v[i] = reflect.ValueOf(r.Float64()*scale + 1e-3)
		}
	}
}

// Property: f_GB is symmetric in the Born radii.
func TestPropertyFGBSymmetric(t *testing.T) {
	f := func(r2, ri, rj float64) bool {
		return FGB(r2, ri, rj) == FGB(r2, rj, ri)
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(31)), Values: posGen(100)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: f_GB interpolates between sqrt(RiRj) at r=0 and r at r→∞:
// max(r, sqrt(RiRj)·e^{-r²/(4RiRj)/2}) ≤ f_GB ≤ sqrt(r² + RiRj).
func TestPropertyFGBBounds(t *testing.T) {
	f := func(r2, ri, rj float64) bool {
		v := FGB(r2, ri, rj)
		upper := math.Sqrt(r2 + ri*rj)
		lower := math.Sqrt(r2)
		return v <= upper+1e-12 && v >= lower-1e-12
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(32)), Values: posGen(50)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: PairTerm has the sign of q_i·q_j (f_GB is positive).
func TestPropertyPairTermSign(t *testing.T) {
	f := func(qi, qj, r2, ri, rj float64) bool {
		qi -= 25 // allow negative charges
		term := PairTerm(qi, qj, r2, ri, rj)
		want := qi * qj
		return (term > 0) == (want > 0) || term == 0 || want == 0
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(33)), Values: posGen(50)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: BornFromIntegral is monotone — a larger integral (more nearby
// surface) gives a smaller Born radius.
func TestPropertyBornFromIntegralMonotone(t *testing.T) {
	f := func(s1, s2, vdw float64) bool {
		vdw = 0.5 + vdw/100
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		return BornFromIntegral(s2, vdw, 100) <= BornFromIntegral(s1, vdw, 100)+1e-12
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(34)), Values: posGen(10)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	// Same property for the r⁴ form.
	f4 := func(s1, s2, vdw float64) bool {
		vdw = 0.5 + vdw/100
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		return BornFromIntegralR4(s2, vdw, 100) <= BornFromIntegralR4(s1, vdw, 100)+1e-12
	}
	if err := quick.Check(f4, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(35)), Values: posGen(10)}); err != nil {
		t.Error(err)
	}
}

// Property: both Born conversions respect their floor and cap for all
// inputs (no NaN, no out-of-range radii).
func TestPropertyBornConversionRange(t *testing.T) {
	f := func(s, vdw, rcap float64) bool {
		s -= 5 // include negative integrals
		vdw = 0.3 + vdw/50
		rcap = vdw + rcap
		r6 := BornFromIntegral(s, vdw, rcap)
		r4 := BornFromIntegralR4(s, vdw, rcap)
		ok := func(r float64) bool {
			return !math.IsNaN(r) && r >= vdw-1e-12 && r <= rcap*(1+1e-9)
		}
		return ok(r6) && ok(r4)
	}
	cfg := &quick.Config{MaxCount: 600, Rand: rand.New(rand.NewSource(36)), Values: posGen(20)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
