package core

import (
	"math"

	"octgb/internal/gb"
	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/octree"
	"octgb/internal/surface"
)

// The recursive treecodes of Figs. 2 and 3 — the single-tree and dual-tree
// Born integrals, the leaf-driven and dual energy traversals — and the
// serial pipelines built from them. No engine runs them: the engines run
// the flat lists, and these are the oracles the lists are held to.

// Result bundles the output of a full serial treecode run.
type Result struct {
	BornRadii []float64 // original atom order
	Epol      float64   // kcal/mol
	BornStats Stats
	EpolStats Stats
}

// ComputeSerial runs the whole pipeline — Born-radius treecode then energy
// treecode — serially on one "rank" with the recursive traversals. It is
// a test oracle of core's: the recursive pipeline core's accuracy tests
// run, and that its flat lists are held to.
func ComputeSerial(mol *molecule.Molecule, qpts []surface.QPoint, bc BornConfig, ec EpolConfig) Result {
	var res Result
	bs := NewBornSolver(mol, qpts, bc)
	sNode, sAtom := bs.NewAccumulators()
	for l := 0; l < bs.NumQLeaves(); l++ {
		res.BornStats.Add(bs.AccumulateQLeaf(l, sNode, sAtom))
	}
	rTree := make([]float64, mol.N())
	bs.PushIntegrals(sNode, sAtom, 0, int32(mol.N()), rTree)
	res.BornRadii = bs.RadiiToOriginal(rTree)

	charges := make([]float64, mol.N())
	for i := range mol.Atoms {
		charges[i] = mol.Atoms[i].Charge
	}
	es := NewEpolSolver(bs.TA, charges, res.BornRadii, ec)
	var raw float64
	for l := 0; l < es.NumLeaves(); l++ {
		e, st := es.LeafEnergy(l)
		raw += e
		res.EpolStats.Add(st)
	}
	res.Epol = raw * EnergyScale()
	return res
}

// ComputeSerialDual is ComputeSerial using the dual-tree traversals (the
// OCT_CILK algorithm of [6]).
func ComputeSerialDual(mol *molecule.Molecule, qpts []surface.QPoint, bc BornConfig, ec EpolConfig) Result {
	var res Result
	bs := NewBornSolver(mol, qpts, bc)
	sNode, sAtom := bs.NewAccumulators()
	res.BornStats = bs.AccumulateDual(sNode, sAtom)
	rTree := make([]float64, mol.N())
	bs.PushIntegrals(sNode, sAtom, 0, int32(mol.N()), rTree)
	res.BornRadii = bs.RadiiToOriginal(rTree)

	charges := make([]float64, mol.N())
	for i := range mol.Atoms {
		charges[i] = mol.Atoms[i].Charge
	}
	es := NewEpolSolver(bs.TA, charges, res.BornRadii, ec)
	raw, st := es.EnergyDual()
	res.EpolStats = st
	res.Epol = raw * EnergyScale()
	return res
}

// AccumulateQLeaf runs APPROX-INTEGRALS(root(T_A), Q) for the q-leaf with
// index qLeaf (0..NumQLeaves-1), adding approximated sums into sNode
// (indexed by T_A node) and exact sums into sAtom (T_A tree order). It
// returns the work counters. This is the single-tree variant used by the
// distributed engines: only the atoms octree is traversed.
func (s *BornSolver) AccumulateQLeaf(qLeaf int, sNode, sAtom []float64) Stats {
	var st Stats
	qn := s.TQ.LeafIdx[qLeaf]
	s.approxIntegrals(0, qn, sNode, sAtom, &st)
	return st
}

// approxIntegrals is the recursion of Fig. 2: a from T_A, q a leaf of T_Q.
func (s *BornSolver) approxIntegrals(a, q int32, sNode, sAtom []float64, st *Stats) {
	st.NodesVisited++
	an := &s.TA.Nodes[a]
	qn := &s.TQ.Nodes[q]
	d2 := an.Center.Dist2(qn.Center)
	if wellSeparated2(d2, an.Radius, qn.Radius, s.sepK2) {
		// Far enough: Q's far term to first order at A's center, and its
		// gradient (farTerm).
		s.AddBornFarTerm(a, q, sNode)
		st.FarEval++
		return
	}
	if an.Leaf {
		// Too close to approximate: exact contributions of every q-point
		// under Q to every atom under A.
		qlo, qhi := s.TQ.PointRange(q)
		alo, ahi := s.TA.PointRange(a)
		for i := alo; i < ahi; i++ {
			p := s.TA.Points[i]
			var acc float64
			for j := qlo; j < qhi; j++ {
				dv := s.TQ.Points[j].Sub(p)
				d2 := dv.Norm2()
				if d2 < 1e-12 {
					continue // q-point coincides with the atom center
				}
				acc += s.wn(j).Dot(dv) * s.kernel(d2)
			}
			sAtom[i] += acc
		}
		st.NearPairs += int64(ahi-alo) * int64(qhi-qlo)
		return
	}
	for _, ch := range an.Children {
		if ch != octree.NoChild {
			s.approxIntegrals(ch, q, sNode, sAtom, st)
		}
	}
}

// AccumulateDual runs the dual-tree variant of APPROX-INTEGRALS from [6]
// (used by OCT_CILK): both octrees are traversed simultaneously starting at
// their roots. Accumulators have the same meaning as in AccumulateQLeaf.
func (s *BornSolver) AccumulateDual(sNode, sAtom []float64) Stats {
	var st Stats
	if len(s.TA.Nodes) == 0 || len(s.TQ.Nodes) == 0 {
		return st
	}
	s.approxIntegralsDual(0, 0, sNode, sAtom, &st)
	return st
}

func (s *BornSolver) approxIntegralsDual(a, q int32, sNode, sAtom []float64, st *Stats) {
	st.NodesVisited++
	an := &s.TA.Nodes[a]
	qn := &s.TQ.Nodes[q]
	d2 := an.Center.Dist2(qn.Center)
	if wellSeparated2(d2, an.Radius, qn.Radius, s.sepK2) {
		s.AddBornFarTerm(a, q, sNode)
		st.FarEval++
		return
	}
	switch {
	case an.Leaf && qn.Leaf:
		qlo, qhi := s.TQ.PointRange(q)
		alo, ahi := s.TA.PointRange(a)
		for i := alo; i < ahi; i++ {
			p := s.TA.Points[i]
			var acc float64
			for j := qlo; j < qhi; j++ {
				dv := s.TQ.Points[j].Sub(p)
				d2 := dv.Norm2()
				if d2 < 1e-12 {
					continue
				}
				acc += s.wn(j).Dot(dv) * s.kernel(d2)
			}
			sAtom[i] += acc
		}
		st.NearPairs += int64(ahi-alo) * int64(qhi-qlo)
	case qn.Leaf || (!an.Leaf && an.Radius >= qn.Radius):
		// Split the atoms node.
		for _, ch := range an.Children {
			if ch != octree.NoChild {
				s.approxIntegralsDual(ch, q, sNode, sAtom, st)
			}
		}
	default:
		// Split the q node.
		for _, ch := range qn.Children {
			if ch != octree.NoChild {
				s.approxIntegralsDual(a, ch, sNode, sAtom, st)
			}
		}
	}
}

// LeafEnergy runs APPROX-EPOL(root, V) for the atoms-octree leaf with index
// vLeaf and returns the leaf's part of the raw sum Σ q_u·q_v/f_GB over all
// ordered atom pairs: its far cells and one-sided exact blocks once, the
// mutual exact blocks it owns twice (blockWeight). Summed over all leaves
// — in any division into ranks — and multiplied by EnergyScale that is
// E_pol. Stats report the work performed.
func (s *EpolSolver) LeafEnergy(vLeaf int) (float64, Stats) {
	var st Stats
	v := s.T.LeafIdx[vLeaf]
	var buf [64]int32
	e := s.epolVisit(0, v, s.ancestors(v, buf[:0]), &st)
	return e, st
}

// epolVisit is the recursion of Fig. 3; v is always a leaf and vAnc its
// proper ancestors.
func (s *EpolSolver) epolVisit(u, v int32, vAnc []int32, st *Stats) float64 {
	st.NodesVisited++
	un := &s.T.Nodes[u]
	vn := &s.T.Nodes[v]
	if un.Leaf {
		w := s.blockWeight(u, v, vAnc)
		if w == 0 {
			return 0
		}
		// Exact ordered pairs between atoms under u and v (including the
		// self pairs when u == v: f_GB(i,i) = R_i).
		ulo, uhi := s.T.PointRange(u)
		vlo, vhi := s.T.PointRange(v)
		var sum float64
		for i := ulo; i < uhi; i++ {
			pi, qi, ri := s.T.Points[i], s.q[i], s.R[i]
			for j := vlo; j < vhi; j++ {
				if i == j {
					sum += qi * qi / ri
					continue
				}
				sum += gb.PairTerm(qi, s.q[j], pi.Dist2(s.T.Points[j]), ri, s.R[j])
			}
		}
		st.NearPairs += int64(uhi-ulo) * int64(vhi-vlo)
		return float64(w) * sum
	}
	d2 := un.Center.Dist2(vn.Center)
	if epolFar2(d2, un.Radius, vn.Radius, s.sep2) {
		return s.binApprox(u, v, d2, st)
	}
	var sum float64
	for _, ch := range un.Children {
		if ch != octree.NoChild {
			sum += s.epolVisit(ch, v, vAnc, st)
		}
	}
	return sum
}

// binApprox evaluates the far-field bin-pair approximation of Fig. 3 step 2
// for nodes u, v at squared center distance d2: farPair's second-order
// form, with each node's bin moments summed here from its atoms (binSums)
// and f_GB's derivatives taken through math.Exp and math.Pow.
func (s *EpolSolver) binApprox(u, v int32, d2 float64, st *Stats) float64 {
	r := s.T.Nodes[u].Center.Sub(s.T.Nodes[v].Center)
	ub, vb := s.binSums(u), s.binSums(v)
	var sum float64
	for i, a := range ub {
		if a == (binSum{}) {
			continue
		}
		rDa, rSa := r.Dot(a.D), a.S.quad(r)
		for j, b := range vb {
			if b == (binSum{}) {
				continue
			}
			rr := s.binRR[i+j]
			e := math.Exp(-d2 / (4 * rr))
			h, hp, hpp := d2+rr*e, 1-e/4, e/(16*rr)
			g0 := 1 / math.Sqrt(h)
			g1 := -0.5 * math.Pow(h, -1.5) * hp
			g2 := 0.75*math.Pow(h, -2.5)*hp*hp - 0.5*math.Pow(h, -1.5)*hpp
			rDb, rSb := r.Dot(b.D), b.S.quad(r)
			sum += g0*a.Q*b.Q +
				g1*(2*(b.Q*rDa-a.Q*rDb)+b.Q*a.S.trace()+a.Q*b.S.trace()-2*a.D.Dot(b.D)) +
				2*g2*(b.Q*rSa+a.Q*rSb-2*rDa*rDb)
			st.FarEval++
		}
	}
	return sum
}

// binSum is one Born-radius bin's charge, dipole and second moment about
// its node's centre.
type binSum struct {
	Q float64
	D geom.Vec3
	S sym3
}

// sym3 is a symmetric 3×3 matrix: xx, yy, zz, xy, xz, yz.
type sym3 [6]float64

func (m sym3) trace() float64 { return m[0] + m[1] + m[2] }

// quad is rᵀ·m·r.
func (m sym3) quad(r geom.Vec3) float64 {
	return r.X*r.X*m[0] + r.Y*r.Y*m[1] + r.Z*r.Z*m[2] + 2*(r.X*r.Y*m[3]+r.X*r.Z*m[4]+r.Y*r.Z*m[5])
}

// binSums returns node n's bin moments, bin by bin, from its atoms.
func (s *EpolSolver) binSums(n int32) []binSum {
	out := make([]binSum, s.M)
	c := s.T.Nodes[n].Center
	lo, hi := s.T.PointRange(n)
	for i := lo; i < hi; i++ {
		q, x := s.q[i], s.T.Points[i].Sub(c)
		b := &out[s.binOf[i]]
		b.Q += q
		b.D = b.D.Add(x.Scale(q))
		for k, p := range [6]float64{x.X * x.X, x.Y * x.Y, x.Z * x.Z, x.X * x.Y, x.X * x.Z, x.Y * x.Z} {
			b.S[k] += q * p
		}
	}
	return out
}

// EnergyDual runs the dual-tree variant — the OCT_CILK algorithm — from the
// root's self pair and returns the raw sum (scale by EnergyScale) with the
// work counters of the pairs it evaluated.
//
// The pair term q_i·q_j/f_GB is symmetric, so the traversal visits each
// UNORDERED node pair once. A self pair (u, u) is one exact diagonal block
// when u is a leaf; otherwise it is replaced by its children's self pairs
// (c_i, c_i) and their mutual pairs (c_i, c_j), i < j. A mutual pair is
// accepted as far-field when well separated, evaluated exactly when both
// nodes are leaves, and otherwise replaced by the pairs of one node with
// the children of the other — the non-leaf, or of two non-leaves the one
// with the larger radius. That choice does not depend on which node is
// written first, so (u, v) decomposes into exactly the mirror image of
// what (v, u) would, and a mutual pair's value stands for both: the raw
// sum is Σ self + 2·Σ mutual, the factor applied where a mutual pair is
// evaluated.
func (s *EpolSolver) EnergyDual() (float64, Stats) {
	var st Stats
	if len(s.T.Nodes) == 0 {
		return 0, st
	}
	e := s.epolDual(NodePair{0, 0}, &st)
	return e, st
}

// epolDual is the recursive form of the dual traversal below one pair. It
// returns what the pair contributes to the raw sum, a mutual pair's factor
// of two included.
func (s *EpolSolver) epolDual(p NodePair, st *Stats) float64 {
	st.NodesVisited++
	var e float64
	switch s.epolKind(p) {
	case epolFar:
		e = s.binApprox(p.A, p.B, s.T.Nodes[p.A].Center.Dist2(s.T.Nodes[p.B].Center), st)
	case epolNear:
		// Exact atom pairs between the two leaves — for a self pair every
		// ordered pair of the leaf, with the diagonal f_GB(i,i) = R_i.
		ulo, uhi := s.T.PointRange(p.A)
		vlo, vhi := s.T.PointRange(p.B)
		for i := ulo; i < uhi; i++ {
			pi, qi, ri := s.T.Points[i], s.q[i], s.R[i]
			for j := vlo; j < vhi; j++ {
				if i == j {
					e += qi * qi / ri
					continue
				}
				e += gb.PairTerm(qi, s.q[j], pi.Dist2(s.T.Points[j]), ri, s.R[j])
			}
		}
		st.NearPairs += int64(uhi-ulo) * int64(vhi-vlo)
	default:
		// 8 self + 28 mutual pairs is the most a split produces.
		var buf [36]NodePair
		kids := s.epolChildren(p, buf[:0])
		for k := len(kids) - 1; k >= 0; k-- {
			e += s.epolDual(kids[k], st)
		}
		return e
	}
	if p.A != p.B {
		e *= 2
	}
	return e
}
