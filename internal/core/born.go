// Package core implements the paper's primary contribution: the
// octree-based Greengard–Rokhlin-type near–far treecode for the surface r⁶
// approximation of Born radii (APPROX-INTEGRALS and
// PUSH-INTEGRALS-TO-ATOMS, Fig. 2 of the paper) and for the GB polarization
// energy with Born-radius charge binning (APPROX-EPOL, Fig. 3).
//
// Two traversal variants are provided, matching the paper's §IV: the
// single-tree form used by the distributed engines (only the atoms octree
// is traversed; q-point leaves drive the traversal) and the dual-tree form
// of the earlier shared-memory algorithm [6] used by OCT_CILK.
//
// All entry points are reentrant: accumulators are supplied by the caller,
// so parallel engines give each worker private accumulators and reduce —
// which is exactly the structure MPI_Allreduce imposes in the paper.
package core

import (
	"math"

	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/octree"
	"octgb/internal/surface"
)

// Stats counts the work a traversal performed — the interactions it
// EVALUATED, not the ones its result stands for: the dual energy traversal
// evaluates each unordered node pair once and counts it once, though the
// value counts twice (BuildEpolDualList), and a leaf-driven energy
// traversal counts a mutual leaf block at the one driver that evaluates it
// (EpolSolver.blockWeight) and every node it visits on the way to a block
// it skips. The deterministic counters feed the virtual-time machine model
// and the complexity tests.
type Stats struct {
	FarEval      int64 // far-field (approximated) cell interactions evaluated
	NearPairs    int64 // exact point-point interactions evaluated
	NodesVisited int64 // recursion steps
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.FarEval += other.FarEval
	s.NearPairs += other.NearPairs
	s.NodesVisited += other.NodesVisited
}

// BornConfig controls the Born-radius treecode.
type BornConfig struct {
	// Eps is the approximation parameter ε (>0). Larger ε approximates
	// more aggressively: faster, less accurate. The paper's experiments
	// use 0.9.
	Eps float64
	// Exponent selects the Born-radius integrand: 6 (default) is the
	// surface r⁶ approximation of Eq. 4 (more accurate for globular
	// solutes, the paper's choice); 4 is the classical Coulomb-field r⁴
	// approximation of Eq. 3.
	Exponent int
	// CriterionPower selects the well-separatedness criterion, built on
	// the ratio test (r_AQ + r_A + r_Q)/(r_AQ − r_A − r_Q) ≤
	// (1+ε)^(1/CriterionPower) (sepFactor2).
	//
	// Power 1 (default) starts from the ratio bound (1+ε) — the geometry
	// of the paper's APPROX-EPOL criterion r_UV > (r_U+r_V)(1+2/ε) — and
	// accepts closer pairs, r_AQ ≥ (r_A+r_Q)(1 + farReach·2/ε), because
	// the far term is first order.
	// Power 6 is the criterion as printed in the poster's prose, which
	// bounds the worst-case ratio of the d⁻⁶ integrand itself; it is so
	// conservative that at ZDock scales it accepts well under 1 % of the
	// cell pairs (making the "treecode" essentially the naïve algorithm),
	// contradicting the poster's own reported speedups — see DESIGN.md.
	CriterionPower int
	// LeafSize is the octree leaf capacity (≤0 → octree.DefaultLeafSize).
	LeafSize int
}

func (c BornConfig) withDefaults() BornConfig {
	if c.Eps <= 0 {
		c.Eps = 0.9
	}
	if c.CriterionPower <= 0 {
		c.CriterionPower = 1
	}
	if c.Exponent != 4 {
		c.Exponent = 6
	}
	return c
}

// sepRatio returns the minimum allowed (r_AQ + r)/(r_AQ − r) threshold
// c = (1+ε)^(1/p); cells are well separated when the actual ratio is ≤ c.
func sepRatio(eps float64, power int) float64 {
	return math.Pow(1+eps, 1/float64(power))
}

// farReach scales the separation constant's excess over 1 for the
// far terms that carry moments, the Born side's first-order farTerm and
// the energy side's second-order farPair (epolFar2): their errors fall
// faster than linearly with the node sizes over the distance, so pairs
// may be accepted closer. At ε = 0.9 it takes k from 3.22 to 2.2. On the
// Born side that was the loosest of the candidates 2.8, 2.5 and 2.2, and
// the only one whose suite energy error against naive stayed no higher
// than the zeroth-order term's at 3.22 on both seed sets measured
// (EXPERIMENTS.md, "the Born far field carries first moments"). On the
// energy side 2.2 holds the dual traversal within 0.18 % of naive on
// seeds 7–12 at 400–4 000 atoms, where 1.8, which would need a constant of
// its own, doubles the median error (EXPERIMENTS.md, "the E_pol far
// field carries charge moments").
const farReach = 0.54

// sepFactor2 is the squared-form separation constant k² for the
// acceptance threshold c. The distance-ratio test
//
//	d−r > 0 && d+r ≤ c·(d−r)
//
// is algebraically d ≥ r·(c+1)/(c−1) = r·(1 + 2/(c−1)) (with d > 0 when
// r = 0). The default criterion (power 1) scales that constant's excess
// over 1 by farReach, k = 1 + farReach·2/(c−1); the poster-printed one
// (any other power) stays as printed, which is what its ablation measures.
// On squared distances the test becomes d² ≥ r²·k² — no square root per
// visited node pair, and k² is computed once per solver instead of the
// ratio arithmetic running per pair. Every traversal (recursive oracles,
// list builders, frontier expansion) uses the same squared test, so Stats
// stay in lockstep across paths.
func sepFactor2(c float64, power int) float64 {
	reach := 1.0
	if power == 1 {
		reach = farReach
	}
	k := 1 + reach*2/(c-1)
	return k * k
}

// wellSeparated2 is the strength-reduced near–far test on SQUARED center
// distance d2 for enclosing balls with radii ra, rq; k2 = sepFactor2(c).
// The d2 > 0 guard keeps coincident single-point cells (r = 0) in the
// near field, matching the d−r > 0 branch of the original form.
func wellSeparated2(d2, ra, rq, k2 float64) bool {
	r := ra + rq
	return d2 >= r*r*k2 && d2 > 0
}

// BornSolver holds the immutable state of the Born-radius treecode: the
// atoms octree T_A, the q-points octree T_Q, per-point payloads in tree
// order, and per-node aggregates.
type BornSolver struct {
	TA *octree.Tree // atoms octree
	TQ *octree.Tree // quadrature-points octree

	cfg   BornConfig
	sepK2 float64   // squared-form separation constant, sepFactor2((1+ε)^(1/p), p)
	r4    bool      // Coulomb-field r⁴ integrand instead of r⁶
	atomR []float64 // vdW radii, T_A tree order
	rcap  float64   // Born-radius cap (molecule diameter)

	// w_q·n_q per q-point in T_Q tree order, and Σ w_q·n_q per T_Q node
	// (the paper's ñ_Q), stored once, as the coordinate streams the flat
	// kernels read (lists.go); sumQNodes and the recursive oracles
	// reassemble vectors through wn and nodeWN.
	wnX, wnY, wnZ    []float64
	wnNX, wnNY, wnNZ []float64
	// qMom holds each T_Q node's symmetric first moment of w·n about its
	// center, M_Q = sym(Σ w_q n_q ⊗ (q − c_Q)), 6 floats per node:
	// (Mxx, Myy, Mzz, 2Mxy, 2Mxz, 2Myz). It depends on the q-point
	// positions, so it is rebuilt with node geometry (RefreshGeometry).
	qMom []float64
	pw   float64 // the integrand's power p as a float: 6, or 4 for r⁴

	// aRange packs each T_A node's point range as start|end<<32 —
	// computed once at construction so the vector near-field kernel
	// (bornnear_amd64.s) can walk run entries without touching the wide
	// octree.Node records.
	aRange []int64
	// aCent packs each T_A node center as 4 contiguous float64
	// (x, y, z, pad) so the vector far-field kernel loads a center with
	// one 32-byte read instead of three strided ones.
	aCent []float64
}

// kernel evaluates the configured integrand's denominator given the
// squared distance: 1/d⁶ for the r⁶ form, 1/d⁴ for the Coulomb-field form.
func (s *BornSolver) kernel(d2 float64) float64 {
	if s.r4 {
		return 1 / (d2 * d2)
	}
	return 1 / (d2 * d2 * d2)
}

// NewBornSolver builds both octrees and all aggregates. The molecule and
// q-point slices are not retained. The storage is a released solver's
// (Release) when Free holds one that fits, and the solver is the same
// either way.
func NewBornSolver(mol *molecule.Molecule, qpts []surface.QPoint, cfg BornConfig) *BornSolver {
	cfg = cfg.withDefaults()
	s := Take[BornSolver](&Free, mol.N()+len(qpts))
	if s.TA == nil {
		s.TA, s.TQ = new(octree.Tree), new(octree.Tree)
	}
	s.cfg, s.sepK2, s.r4 = cfg, sepFactor2(sepRatio(cfg.Eps, cfg.CriterionPower), cfg.CriterionPower), cfg.Exponent == 4
	s.pw = float64(cfg.Exponent)

	apos := Resize(s.TA.Points, mol.N())
	for i := range mol.Atoms {
		apos[i] = mol.Atoms[i].Pos
	}
	s.TA.Rebuild(apos, cfg.LeafSize)
	s.atomR = Resize(s.atomR, mol.N())
	for i, orig := range s.TA.Perm {
		s.atomR[i] = mol.Atoms[orig].Radius
	}

	qpos := Resize(s.TQ.Points, len(qpts))
	for i := range qpts {
		qpos[i] = qpts[i].Pos
	}
	s.TQ.Rebuild(qpos, cfg.LeafSize)
	s.wnX = Resize(s.wnX, len(qpts))
	s.wnY = Resize(s.wnY, len(qpts))
	s.wnZ = Resize(s.wnZ, len(qpts))
	for i, orig := range s.TQ.Perm {
		q := &qpts[orig]
		w := q.Normal.Scale(q.Weight)
		s.wnX[i], s.wnY[i], s.wnZ[i] = w.X, w.Y, w.Z
	}
	s.sumQNodes()

	b := mol.Bounds()
	if b.IsEmpty() {
		s.rcap = 10
	} else {
		s.rcap = math.Max(10, 2*b.HalfDiagonal())
	}
	s.aRange = Resize(s.aRange, len(s.TA.Nodes))
	s.aCent = Resize(s.aCent, 4*len(s.TA.Nodes))
	for n := range s.TA.Nodes {
		lo, hi := s.TA.PointRange(int32(n))
		s.aRange[n] = int64(lo) | int64(hi)<<32
		c := s.TA.Nodes[n].Center
		s.aCent[4*n], s.aCent[4*n+1], s.aCent[4*n+2], s.aCent[4*n+3] = c.X, c.Y, c.Z, 0
	}
	return s
}

// sumQNodes aggregates each T_Q node's ñ_Q and its first moment M_Q about
// the node's current center, bottom-up: a leaf sums its own point range,
// an internal node its children's sums, each child's moment moved to the
// parent's center (M_P = Σ M_C + ñ_C ⊗ (c_C − c_P)). In the linearized
// layout children always have larger indices than their parent, so one
// reverse sweep is O(nodes + points) instead of the O(points · depth) of
// summing every point under every ancestor.
func (s *BornSolver) sumQNodes() {
	tq := s.TQ
	s.wnNX = Resize(s.wnNX, len(tq.Nodes))
	s.wnNY = Resize(s.wnNY, len(tq.Nodes))
	s.wnNZ = Resize(s.wnNZ, len(tq.Nodes))
	s.qMom = Resize(s.qMom, 6*len(tq.Nodes))
	for n := len(tq.Nodes) - 1; n >= 0; n-- {
		nd := &tq.Nodes[n]
		var sum geom.Vec3
		var m [6]float64
		if nd.Leaf {
			for i := nd.Start; i < nd.Start+nd.Count; i++ {
				w := s.wn(i)
				sum = sum.Add(w)
				addMoment(&m, w, tq.Points[i].Sub(nd.Center))
			}
		} else {
			for _, ch := range nd.Children {
				if ch == octree.NoChild {
					continue
				}
				w := s.nodeWN(ch)
				sum = sum.Add(w)
				addMoment(&m, w, tq.Nodes[ch].Center.Sub(nd.Center))
				for k, v := range s.qMom[6*ch : 6*ch+6] {
					m[k] += v
				}
			}
		}
		s.wnNX[n], s.wnNY[n], s.wnNZ[n] = sum.X, sum.Y, sum.Z
		copy(s.qMom[6*n:6*n+6], m[:])
	}
}

// addMoment adds sym(w ⊗ u) to m in qMom's packing.
func addMoment(m *[6]float64, w, u geom.Vec3) {
	m[0] += w.X * u.X
	m[1] += w.Y * u.Y
	m[2] += w.Z * u.Z
	m[3] += w.X*u.Y + w.Y*u.X
	m[4] += w.X*u.Z + w.Z*u.X
	m[5] += w.Y*u.Z + w.Z*u.Y
}

// wn returns w_q·n_q of the q-point at tree-order index j.
func (s *BornSolver) wn(j int32) geom.Vec3 { return geom.Vec3{X: s.wnX[j], Y: s.wnY[j], Z: s.wnZ[j]} }

// nodeWN returns ñ_Q of T_Q node q.
func (s *BornSolver) nodeWN(q int32) geom.Vec3 {
	return geom.Vec3{X: s.wnNX[q], Y: s.wnNY[q], Z: s.wnNZ[q]}
}

// farTerm is APPROX-INTEGRALS' far field to first order: the T_Q node q
// seen from offset (dx, dy, dz) = y = c_Q − c_A. With the integrand
// w_q n_q·r/|r|ᵖ, r = q − x, and M = M_Q (qMom), the sum over Q's points
// at an atom x under A is, to second order in the node sizes over |y|,
//
//	(ñ·y + tr M − p·yᵀMy/|y|²)/|y|ᵖ + g·(x − c_A),
//	g = −(ñ − p(ñ·y)·y/|y|²)/|y|ᵖ.
//
// v is the first term, the value at c_A, and (gx, gy, gz) is g, which
// PushIntegrals applies at each atom. Every far evaluation — the range
// kernels (the vector one lane by lane), AddBornFarTerm and the test oracles
// — forms these in this order, so they agree bit for bit.
func (s *BornSolver) farTerm(q int32, dx, dy, dz float64) (v, gx, gy, gz float64) {
	nx, ny, nz := s.wnNX[q], s.wnNY[q], s.wnNZ[q]
	m := s.qMom[6*q : 6*q+6 : 6*q+6]
	d2 := dx*dx + dy*dy + dz*dz
	i2 := 1 / d2
	k := i2 * i2
	if !s.r4 {
		k *= i2
	}
	nd := nx*dx + ny*dy + nz*dz
	ymy := dx*(m[0]*dx+m[3]*dy+m[4]*dz) + dy*(m[1]*dy+m[5]*dz) + dz*(m[2]*dz)
	tr := m[0] + m[1] + m[2]
	pi2 := s.pw * i2
	v = (nd + tr - pi2*ymy) * k
	c := pi2 * nd
	return v, (c*dx - nx) * k, (c*dy - ny) * k, (c*dz - nz) * k
}

// AddBornFarTerm adds one far-field list entry (a, q) — T_Q node q's far
// term at A's center and its gradient (farTerm) — into sNode[4a : 4a+4].
// Every scalar far evaluation goes through it, so a term recomputed in
// isolation (a session's far sums) is bitwise the term a full far sweep
// adds.
func (s *BornSolver) AddBornFarTerm(a, q int32, sNode []float64) {
	v, gx, gy, gz := s.farTerm(q, s.TQ.CX[q]-s.TA.CX[a], s.TQ.CY[q]-s.TA.CY[a], s.TQ.CZ[q]-s.TA.CZ[a])
	t := sNode[4*a : 4*a+4 : 4*a+4]
	t[0] += v
	t[1] += gx
	t[2] += gy
	t[3] += gz
}

// MemoryBytes is the memory the solver holds: both octrees and the
// per-point and per-node payload streams, at their capacity.
func (s *BornSolver) MemoryBytes() int64 {
	floats := cap(s.atomR) + cap(s.wnX) + cap(s.wnY) + cap(s.wnZ) + cap(s.wnNX) + cap(s.wnNY) + cap(s.wnNZ) +
		cap(s.qMom) + cap(s.aRange) + cap(s.aCent)
	return s.TA.MemoryBytes() + s.TQ.MemoryBytes() + 8*int64(floats)
}

// Eps returns the configured approximation parameter.
func (s *BornSolver) Eps() float64 { return s.cfg.Eps }

// NumAtoms returns the number of atoms.
func (s *BornSolver) NumAtoms() int { return len(s.atomR) }

// NumQLeaves returns the number of leaves of the q-point octree — the unit
// of node-based work division for the Born phase (paper Fig. 4, step 2).
func (s *BornSolver) NumQLeaves() int { return s.TQ.NumLeaves() }

// NewAccumulators allocates a zeroed (sNode, sAtom) pair: sNode holds four
// floats per T_A node — the far field's value at the node's center and its
// gradient (farTerm) — and sAtom one exact near-field sum per atom.
func (s *BornSolver) NewAccumulators() (sNode, sAtom []float64) {
	return make([]float64, 4*len(s.TA.Nodes)), make([]float64, len(s.atomR))
}

// PushIntegrals implements PUSH-INTEGRALS-TO-ATOMS: it pushes ancestor
// sums down T_A and converts accumulated integrals into Born radii for the
// atoms whose tree-order index lies in [lo, hi) — the per-process atom
// segment of Fig. 4 step 4. A node's far field is linear about its center,
// so an ancestor's is moved to each child's center on the way down
// (pushTotal) and an atom reads its leaf's at its own position (farAt). R
// is written in tree order (callers use RadiiToOriginal for the original
// order). Subtrees disjoint from [lo, hi) are pruned, which is how each
// process traverses only its part of the tree; the number of nodes
// actually visited is returned for the time model.
func (s *BornSolver) PushIntegrals(sNode, sAtom []float64, lo, hi int32, R []float64) int64 {
	if len(s.TA.Nodes) == 0 {
		return 0
	}
	return s.pushDown(0, [4]float64{}, sNode, sAtom, lo, hi, R)
}

func (s *BornSolver) pushDown(n int32, anc [4]float64, sNode, sAtom []float64, lo, hi int32, R []float64) int64 {
	nd := &s.TA.Nodes[n]
	if nd.Start+nd.Count <= lo || nd.Start >= hi {
		return 0
	}
	visited := int64(1)
	var total [4]float64
	s.pushTotal(n, anc[:], sNode, total[:])
	if nd.Leaf {
		from, to := nd.Start, nd.Start+nd.Count
		if from < lo {
			from = lo
		}
		if to > hi {
			to = hi
		}
		for i := from; i < to; i++ {
			R[i] = s.BornRadiusFromSums(i, n, sAtom[i], total[:])
		}
		return visited
	}
	for _, ch := range nd.Children {
		if ch != octree.NoChild {
			visited += s.pushDown(ch, total, sNode, sAtom, lo, hi, R)
		}
	}
	return visited
}

// pushTotal writes to out node n's pushed far total: its parent's total
// par, moved to n's center, plus n's own sums in sNode. par is ignored at
// the root.
func (s *BornSolver) pushTotal(n int32, par, sNode, out []float64) {
	ta := s.TA
	own := sNode[4*n : 4*n+4 : 4*n+4]
	p := ta.Nodes[n].Parent
	if p == octree.NoChild {
		copy(out, own)
		return
	}
	out[0] = farAt(par, ta.CX[p], ta.CY[p], ta.CZ[p], ta.CX[n], ta.CY[n], ta.CZ[n]) + own[0]
	out[1] = par[1] + own[1]
	out[2] = par[2] + own[2]
	out[3] = par[3] + own[3]
}

// farAt evaluates a pushed far total t — a value at (cx, cy, cz) and its
// gradient — at the point (x, y, z).
func farAt(t []float64, cx, cy, cz, x, y, z float64) float64 {
	return t[0] + (t[1]*(x-cx) + t[2]*(y-cy) + t[3]*(z-cz))
}

// RadiiToOriginal converts tree-order Born radii to original atom order.
func (s *BornSolver) RadiiToOriginal(treeOrder []float64) []float64 {
	out := make([]float64, len(treeOrder))
	for i, orig := range s.TA.Perm {
		out[orig] = treeOrder[i]
	}
	return out
}
