// Package gb implements the Generalized-Born physics shared by every engine
// in the library: the GB pair function f_GB, the STILL-style polarization
// energy (Eq. 2 of the paper), the surface-based r⁶/r⁴ Born-radius
// integrals (Eqs. 3–4) and naïve exact reference evaluators.
package gb

import (
	"math"

	"octgb/internal/molecule"
	"octgb/internal/surface"
)

// SolventDielectric is the relative permittivity of water used throughout
// the paper's experiments.
const SolventDielectric = 80.0

// CoulombConstant converts e²/Å to kcal/mol.
const CoulombConstant = 332.0636

// Tau is the GB solvation prefactor (1 − 1/ε_solv); the polarization energy
// is E_pol = −(τ/2)·k_e·Σ q_i q_j / f_GB.
func Tau(epsSolv float64) float64 { return 1 - 1/epsSolv }

// FGB evaluates the GB pair function
//
//	f_GB(i,j) = sqrt(r_ij² + R_i·R_j·exp(−r_ij²/(4·R_i·R_j)))
//
// given the squared distance and the two Born radii.
func FGB(rij2, Ri, Rj float64) float64 {
	rr := Ri * Rj
	return math.Sqrt(rij2 + rr*math.Exp(-rij2/(4*rr)))
}

// PairTerm returns q_i·q_j / f_GB for one ordered pair. Multiply by
// −τ·k_e/2 and sum over all ordered pairs (including i=j, whose f_GB is
// R_i) to obtain E_pol.
func PairTerm(qi, qj, rij2, Ri, Rj float64) float64 {
	return qi * qj / FGB(rij2, Ri, Rj)
}

// BornFromIntegral converts the accumulated surface integral
// s = Σ w_q (p_q−p_a)·n_q / |p_q−p_a|⁶ into the r⁶ Born radius
// R = (s/4π)^(−1/3), floored at the atom's vdW radius (the paper's
// max{r_a, ·}) and capped at rcap (a physical bound, e.g. the molecule
// diameter) to absorb quadrature noise for deeply buried atoms.
func BornFromIntegral(s, vdw, rcap float64) float64 {
	if rcap < vdw {
		rcap = vdw
	}
	sMin := 4 * math.Pi / (rcap * rcap * rcap)
	if s < sMin {
		s = sMin
	}
	r := math.Pow(s/(4*math.Pi), -1.0/3.0)
	if r < vdw {
		return vdw
	}
	return r
}

// BornFromIntegralR4 converts the accumulated r⁴ (Coulomb-field) surface
// integral s = Σ w_q (p_q−p_a)·n_q / |p_q−p_a|⁴ into the Born radius
// R = 4π/s (Eq. 3), with the same vdW floor and cap guards as the r⁶ form.
func BornFromIntegralR4(s, vdw, rcap float64) float64 {
	if rcap < vdw {
		rcap = vdw
	}
	sMin := 4 * math.Pi / rcap
	if s < sMin {
		s = sMin
	}
	r := 4 * math.Pi / s
	if r < vdw {
		return vdw
	}
	return r
}

// BornRadiiR6 computes the exact (no treecode) surface-based r⁶ Born radii
// of every atom: Eq. 4 evaluated by direct summation over all q-points.
func BornRadiiR6(mol *molecule.Molecule, q []surface.QPoint) []float64 {
	out := make([]float64, mol.N())
	rcap := bornCap(mol)
	for i := range mol.Atoms {
		a := &mol.Atoms[i]
		var s float64
		for k := range q {
			d := q[k].Pos.Sub(a.Pos)
			d2 := d.Norm2()
			s += q[k].Weight * d.Dot(q[k].Normal) / (d2 * d2 * d2)
		}
		out[i] = BornFromIntegral(s, a.Radius, rcap)
	}
	return out
}

// BornRadiiR4 computes the r⁴ (Coulomb-field) Born radii of Eq. 3:
// 1/R = (1/4π) Σ w_q (p_q−p_a)·n_q / |p_q−p_a|⁴.
func BornRadiiR4(mol *molecule.Molecule, q []surface.QPoint) []float64 {
	out := make([]float64, mol.N())
	rcap := bornCap(mol)
	for i := range mol.Atoms {
		a := &mol.Atoms[i]
		var s float64
		for k := range q {
			d := q[k].Pos.Sub(a.Pos)
			d2 := d.Norm2()
			s += q[k].Weight * d.Dot(q[k].Normal) / (d2 * d2)
		}
		// 1/R = s/(4π); same noise guards as r⁶.
		sMin := 4 * math.Pi / rcap
		if s < sMin {
			s = sMin
		}
		r := 4 * math.Pi / s
		if r < a.Radius {
			r = a.Radius
		}
		out[i] = r
	}
	return out
}

// bornCap returns the Born-radius cap used to absorb quadrature noise: the
// diameter of the molecule's bounding box (no physical Born radius exceeds
// the molecular extent).
func bornCap(mol *molecule.Molecule) float64 {
	b := mol.Bounds()
	if b.IsEmpty() {
		return 1
	}
	d := 2 * b.HalfDiagonal()
	if d < 10 {
		d = 10
	}
	return d
}

// EpolNaive computes the exact GB polarization energy (kcal/mol) by the
// full double sum of Eq. 2, including self terms (f_GB(i,i) = R_i).
func EpolNaive(mol *molecule.Molecule, R []float64) float64 {
	tau := Tau(SolventDielectric)
	var sum float64
	n := mol.N()
	for i := 0; i < n; i++ {
		ai := &mol.Atoms[i]
		// Self term: r_ii = 0 ⇒ f_GB = R_i.
		sum += ai.Charge * ai.Charge / R[i]
		for j := i + 1; j < n; j++ {
			aj := &mol.Atoms[j]
			t := PairTerm(ai.Charge, aj.Charge, ai.Pos.Dist2(aj.Pos), R[i], R[j])
			sum += 2 * t // ordered pairs (i,j) and (j,i)
		}
	}
	return -0.5 * tau * CoulombConstant * sum
}
