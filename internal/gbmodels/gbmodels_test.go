package gbmodels

import (
	"math"
	"testing"

	"octgb/internal/gb"
	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/surface"
)

func isolated(r float64) *molecule.Molecule {
	return &molecule.Molecule{Name: "iso", Atoms: []molecule.Atom{
		{Pos: geom.V(0, 0, 0), Radius: r, Charge: -1},
	}}
}

func TestIsolatedAtomRadii(t *testing.T) {
	m := isolated(1.7)
	for _, model := range []Model{HCT, STILL} {
		res := Radii(model, m, Params{})
		want := 1.7 - 0.09 // intrinsic radius
		if math.Abs(res.R[0]-want) > 1e-12 {
			t.Errorf("%v isolated R = %v, want %v", model, res.R[0], want)
		}
	}
	// VolR6 uses no offset by default: isolated R = vdW radius.
	if res := Radii(VolR6, m, Params{}); math.Abs(res.R[0]-1.7) > 1e-12 {
		t.Errorf("VolR6 isolated R = %v, want 1.7", res.R[0])
	}
	// OBC with zero descreening: tanh(0)=0 ⇒ R = ρ̃.
	res := Radii(OBC, m, Params{})
	if math.Abs(res.R[0]-(1.7-0.09)) > 1e-12 {
		t.Errorf("OBC isolated R = %v", res.R[0])
	}
}

func TestNeighborIncreasesBornRadius(t *testing.T) {
	// Descreening by a neighbour displaces solvent ⇒ R grows.
	single := isolated(1.7)
	pair := &molecule.Molecule{Name: "pair", Atoms: []molecule.Atom{
		{Pos: geom.V(0, 0, 0), Radius: 1.7, Charge: -1},
		{Pos: geom.V(3.5, 0, 0), Radius: 1.7, Charge: 1},
	}}
	for _, model := range []Model{HCT, OBC, STILL, VolR6} {
		r1 := Radii(model, single, Params{}).R[0]
		r2 := Radii(model, pair, Params{}).R[0]
		if r2 <= r1 {
			t.Errorf("%v: neighbour did not increase R: %v -> %v", model, r1, r2)
		}
	}
}

func TestBuriedLargerThanSurface(t *testing.T) {
	m := molecule.GenerateProtein("b", 1200, 5)
	for _, model := range []Model{HCT, OBC, VolR6} {
		res := Radii(model, m, Params{})
		c := m.Centroid()
		rOut := m.Bounds().Size().MaxComponent() / 2
		var inner, outer, ni, no float64
		for i, a := range m.Atoms {
			d := a.Pos.Dist(c)
			if d < 0.3*rOut {
				inner += res.R[i]
				ni++
			} else if d > 0.85*rOut {
				outer += res.R[i]
				no++
			}
		}
		if ni == 0 || no == 0 {
			t.Skip("no inner/outer atoms")
		}
		if inner/ni <= outer/no {
			t.Errorf("%v: buried R̄ %v ≤ surface R̄ %v", model, inner/ni, outer/no)
		}
	}
}

func TestCutoffApproachesNoCutoff(t *testing.T) {
	m := molecule.GenerateProtein("c", 800, 6)
	full := Radii(HCT, m, Params{})
	big := Radii(HCT, m, Params{Cutoff: 1000})
	for i := range full.R {
		if math.Abs(full.R[i]-big.R[i]) > 1e-9 {
			t.Fatalf("atom %d: cutoff-1000 radius %v != full %v", i, big.R[i], full.R[i])
		}
	}
	// A small cutoff under-descreens: radii shrink toward intrinsic.
	small := Radii(HCT, m, Params{Cutoff: 6})
	var meanFull, meanSmall float64
	for i := range full.R {
		meanFull += full.R[i]
		meanSmall += small.R[i]
	}
	if meanSmall >= meanFull {
		t.Errorf("small cutoff did not reduce radii: %v vs %v", meanSmall, meanFull)
	}
}

func TestPairCountersWithCutoff(t *testing.T) {
	m := molecule.GenerateProtein("p", 600, 7)
	full := Radii(HCT, m, Params{})
	cut := Radii(HCT, m, Params{Cutoff: 8})
	if full.PairsEvaluated != int64(600)*599 {
		t.Errorf("full pairs = %d", full.PairsEvaluated)
	}
	if cut.PairsEvaluated >= full.PairsEvaluated {
		t.Errorf("cutoff did not reduce pairs: %d", cut.PairsEvaluated)
	}
	if cut.NblistTests == 0 {
		t.Error("nblist tests not counted")
	}
}

func TestSTILLGivesSmallerEnergyMagnitude(t *testing.T) {
	// The paper's Figure 9: Tinker (STILL) reports ≈70 % of the naive
	// energy. Our STILL stand-in must reproduce systematically smaller
	// |E_pol| than the surface-r⁶ reference.
	m := molecule.GenerateProtein("s", 800, 8)
	q := surface.Sample(m, surface.Default())
	Rref := gb.BornRadiiR6(m, q)
	eRef := gb.EpolNaive(m, Rref)

	Rstill := Radii(STILL, m, Params{}).R
	eStill := gb.EpolNaive(m, Rstill)

	ratio := eStill / eRef
	if ratio < 0.45 || ratio > 0.92 {
		t.Errorf("STILL/naive energy ratio %v outside the Tinker-like band", ratio)
	}
}

func TestHCTEnergyCloseToReference(t *testing.T) {
	// Figure 9: Amber/Gromacs (HCT) energies track the naive energy
	// closely. Different Born-radius models legitimately differ by some
	// percent; assert the ratio is near 1.
	m := molecule.GenerateProtein("h", 800, 9)
	q := surface.Sample(m, surface.Default())
	Rref := gb.BornRadiiR6(m, q)
	eRef := gb.EpolNaive(m, Rref)

	Rhct := Radii(HCT, m, Params{}).R
	eHct := gb.EpolNaive(m, Rhct)
	if ratio := eHct / eRef; ratio < 0.8 || ratio > 1.25 {
		t.Errorf("HCT/naive energy ratio %v too far from 1", ratio)
	}
}

func TestEpolCutoffConvergesToNaive(t *testing.T) {
	m := molecule.GenerateProtein("e", 500, 10)
	q := surface.Sample(m, surface.Default())
	R := gb.BornRadiiR6(m, q)
	exact := gb.EpolNaive(m, R)

	prevErr := math.Inf(1)
	for _, cutoff := range []float64{8, 16, 32, 64} {
		e, _ := EpolCutoff(m, R, cutoff)
		err := math.Abs(e - exact)
		if err > prevErr+1e-9 {
			t.Errorf("cutoff %v: error %v did not shrink (prev %v)", cutoff, err, prevErr)
		}
		prevErr = err
	}
	if prevErr > 1e-6*math.Abs(exact) {
		t.Errorf("cutoff-64 error %v still large", prevErr)
	}
	// cutoff ≤ 0 = exact.
	e0, _ := EpolCutoff(m, R, 0)
	if e0 != exact {
		t.Errorf("no-cutoff path %v != naive %v", e0, exact)
	}
}

func TestModelString(t *testing.T) {
	if HCT.String() != "HCT" || OBC.String() != "OBC" || STILL.String() != "STILL" || VolR6.String() != "VolR6" {
		t.Error("model names wrong")
	}
	if Model(99).String() != "unknown" {
		t.Error("unknown model name")
	}
}

func BenchmarkHCTRadii2000(b *testing.B) {
	m := molecule.GenerateProtein("b", 2000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Radii(HCT, m, Params{Cutoff: 25})
	}
}
