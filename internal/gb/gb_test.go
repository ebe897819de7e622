package gb

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/surface"
)

func TestTau(t *testing.T) {
	if got := Tau(80); math.Abs(got-0.9875) > 1e-12 {
		t.Errorf("Tau(80) = %v", got)
	}
	if got := Tau(1); got != 0 {
		t.Errorf("Tau(1) = %v (vacuum should have no polarization)", got)
	}
}

func TestFGBLimits(t *testing.T) {
	// r → 0: f_GB → sqrt(R_i R_j).
	if got := FGB(0, 2, 8); math.Abs(got-4) > 1e-12 {
		t.Errorf("FGB(0,2,8) = %v, want 4", got)
	}
	// r → ∞: f_GB → r (Coulomb limit).
	r2 := 1e8
	if got := FGB(r2, 2, 3); math.Abs(got-math.Sqrt(r2)) > 1e-3 {
		t.Errorf("FGB large-r = %v, want %v", got, math.Sqrt(r2))
	}
	// f_GB is between max(r, sqrt(RiRj)) bounds.
	f := FGB(9, 2, 2)
	if f < 3 || f > math.Sqrt(9+4) {
		t.Errorf("FGB(9,2,2) = %v out of [3, sqrt13]", f)
	}
}

func TestFGBMonotoneInDistance(t *testing.T) {
	f := func(r2a, r2b, ri, rj float64) bool {
		r2a, r2b = math.Abs(r2a), math.Abs(r2b)
		ri, rj = math.Abs(ri)+0.1, math.Abs(rj)+0.1
		if r2a > r2b {
			r2a, r2b = r2b, r2a
		}
		return FGB(r2a, ri, rj) <= FGB(r2b, ri, rj)+1e-12
	}
	cfg := &quick.Config{
		MaxCount: 500,
		Rand:     rand.New(rand.NewSource(3)),
		Values: func(v []reflect.Value, r *rand.Rand) {
			for i := range v {
				v[i] = reflect.ValueOf(r.Float64() * 100)
			}
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBornFromIntegral(t *testing.T) {
	// s for an isolated sphere of radius r is 4π/r³ ⇒ R = r.
	r := 1.7
	s := 4 * math.Pi / (r * r * r)
	if got := BornFromIntegral(s, r, 100); math.Abs(got-r) > 1e-12 {
		t.Errorf("R = %v, want %v", got, r)
	}
	// Noise guard: negative integral caps at rcap (up to roundoff).
	if got := BornFromIntegral(-1, 1.5, 50); math.Abs(got-50) > 1e-9 {
		t.Errorf("negative s gave %v, want cap 50", got)
	}
	// vdW floor.
	if got := BornFromIntegral(1e9, 1.5, 50); got != 1.5 {
		t.Errorf("huge s gave %v, want vdW floor 1.5", got)
	}
}

func singleAtom(r float64) *molecule.Molecule {
	return &molecule.Molecule{Name: "one", Atoms: []molecule.Atom{
		{Pos: geom.V(0, 0, 0), Radius: r, Charge: -1},
	}}
}

func TestBornRadiusIsolatedAtomEqualsVdW(t *testing.T) {
	// The defining property of the surface r⁶ formulation: an isolated
	// atom's Born radius equals its vdW radius.
	m := singleAtom(1.52)
	q := surface.Sample(m, surface.Options{SubdivLevel: 2, Degree: 2})
	R := BornRadiiR6(m, q)
	if math.Abs(R[0]-1.52) > 0.02 {
		t.Errorf("isolated Born radius %v, want 1.52", R[0])
	}
	R4 := BornRadiiR4(m, q)
	if math.Abs(R4[0]-1.52) > 0.02 {
		t.Errorf("isolated r⁴ Born radius %v, want 1.52", R4[0])
	}
}

func TestBornRadiusBuriedLargerThanSurface(t *testing.T) {
	// In a protein, buried atoms have larger Born radii than surface atoms.
	m := molecule.GenerateProtein("b", 1500, 77)
	q := surface.Sample(m, surface.Default())
	R := BornRadiiR6(m, q)
	c := m.Centroid()
	b := m.Bounds()
	rOut := b.Size().MaxComponent() / 2
	var inner, outer []float64
	for i, a := range m.Atoms {
		d := a.Pos.Dist(c)
		if d < 0.3*rOut {
			inner = append(inner, R[i])
		} else if d > 0.8*rOut {
			outer = append(outer, R[i])
		}
	}
	if len(inner) == 0 || len(outer) == 0 {
		t.Skip("degenerate molecule shape")
	}
	if mean(inner) <= mean(outer) {
		t.Errorf("buried atoms R̄=%v not larger than surface atoms R̄=%v", mean(inner), mean(outer))
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestEpolNaiveSingleCharge(t *testing.T) {
	// Single ion: E = -τ/2 · k_e · q²/R (the Born equation).
	m := singleAtom(2.0)
	R := []float64{2.0}
	got := EpolNaive(m, R)
	want := -0.5 * Tau(SolventDielectric) * CoulombConstant * 1.0 / 2.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Born ion energy %v, want %v", got, want)
	}
}

func TestEpolNaiveNegativeForRealisticMolecule(t *testing.T) {
	m := molecule.GenerateProtein("e", 400, 5)
	q := surface.Sample(m, surface.Default())
	R := BornRadiiR6(m, q)
	e := EpolNaive(m, R)
	if e >= 0 {
		t.Errorf("E_pol = %v, expected negative (relaxation lowers energy)", e)
	}
	// Self energy alone must also be negative and dominate the sign.
	if se := selfEnergy(m, R); se >= 0 || se < e*2 {
		t.Errorf("self energy %v implausible vs total %v", se, e)
	}
}

func TestEpolNaiveSymmetryUnderRelabeling(t *testing.T) {
	// Energy must not depend on atom order.
	m := molecule.GenerateProtein("s", 120, 8)
	q := surface.Sample(m, surface.Default())
	R := BornRadiiR6(m, q)
	e1 := EpolNaive(m, R)

	// Reverse atom order.
	rev := &molecule.Molecule{Name: "rev", Atoms: make([]molecule.Atom, m.N())}
	Rrev := make([]float64, m.N())
	for i := range m.Atoms {
		j := m.N() - 1 - i
		rev.Atoms[i] = m.Atoms[j]
		Rrev[i] = R[j]
	}
	e2 := EpolNaive(rev, Rrev)
	if math.Abs(e1-e2) > 1e-9*math.Abs(e1) {
		t.Errorf("energy changed under relabeling: %v vs %v", e1, e2)
	}
}

func TestEpolRigidInvariance(t *testing.T) {
	// E_pol depends only on internal geometry: rigid motion leaves it
	// unchanged (Born radii recomputed from the moved surface).
	m := molecule.GenerateProtein("ri", 200, 9)
	q := surface.Sample(m, surface.Default())
	R := BornRadiiR6(m, q)
	e1 := EpolNaive(m, R)

	tr := geom.RotationAxisAngle(geom.V(0, 1, 1), 0.8)
	tr.T = geom.V(100, -30, 7)
	mt := m.Transform(tr)
	qt := surface.Sample(mt, surface.Default())
	Rt := BornRadiiR6(mt, qt)
	e2 := EpolNaive(mt, Rt)
	// The icosphere sampling directions are lab-frame-fixed, so rotating
	// the molecule changes the surface discretization slightly; only the
	// discretization noise (≲1–2% at default resolution) may differ.
	if rel := math.Abs(e1-e2) / math.Abs(e1); rel > 0.02 {
		t.Errorf("energy changed under rigid motion by %v: %v vs %v", rel, e1, e2)
	}
}

func BenchmarkEpolNaive1000(b *testing.B) {
	m := molecule.GenerateProtein("bench", 1000, 1)
	q := surface.Sample(m, surface.Default())
	R := BornRadiiR6(m, q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EpolNaive(m, R)
	}
}

func BenchmarkPairTerm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		PairTerm(0.3, -0.2, 55, 2, 3)
	}
}

// selfEnergy returns only the diagonal of Eq. 2, to separate the pair
// contribution.
func selfEnergy(mol *molecule.Molecule, R []float64) float64 {
	tau := Tau(SolventDielectric)
	var sum float64
	for i := range mol.Atoms {
		q := mol.Atoms[i].Charge
		sum += q * q / R[i]
	}
	return -0.5 * tau * CoulombConstant * sum
}
