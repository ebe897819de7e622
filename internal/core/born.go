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

	"octgb/internal/gb"
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
	// CriterionPower selects the well-separatedness criterion. The
	// acceptance test is (r_AQ + r_A + r_Q)/(r_AQ − r_A − r_Q) ≤
	// (1+ε)^(1/CriterionPower).
	//
	// Power 1 (default) bounds the distance ratio by (1+ε) — the same
	// geometry as the paper's APPROX-EPOL criterion r_UV > (r_U+r_V)(1+2/ε)
	// — and reproduces the paper's reported speed/error operating points.
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

// sepFactor2 converts the acceptance threshold c into the squared-form
// constant k² = ((c+1)/(c−1))². The historical test
//
//	d−r > 0 && d+r ≤ c·(d−r)
//
// is algebraically d ≥ r·(c+1)/(c−1) (with d > 0 when r = 0), so on
// squared distances it becomes d² ≥ r²·k² — no square root per visited
// node pair, and k² is computed once per solver instead of the ratio
// arithmetic running per pair. Every traversal (recursive oracles, list
// builders, frontier expansion) uses the same squared test, so Stats
// stay in lockstep across paths.
func sepFactor2(c float64) float64 {
	k := (c + 1) / (c - 1)
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
	sepK2 float64   // squared-form separation constant, sepFactor2((1+ε)^(1/p))
	r4    bool      // Coulomb-field r⁴ integrand instead of r⁶
	atomR []float64 // vdW radii, T_A tree order
	rcap  float64   // Born-radius cap (molecule diameter)

	// w_q·n_q per q-point in T_Q tree order, and Σ w_q·n_q per T_Q node
	// (the paper's ñ_Q), stored once, as the coordinate streams the flat
	// kernels read (lists.go); the recursive oracle reassembles vectors
	// through wn and nodeWN.
	wnX, wnY, wnZ    []float64
	wnNX, wnNY, wnNZ []float64

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
	s.cfg, s.sepK2, s.r4 = cfg, sepFactor2(sepRatio(cfg.Eps, cfg.CriterionPower)), cfg.Exponent == 4

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
	// Per-node ñ_Q aggregated bottom-up: leaves sum their own point range,
	// internal nodes sum their children. In the linearized layout children
	// always have larger indices than their parent, so one reverse sweep is
	// O(nodes + points) instead of the O(points · depth) of summing every
	// point under every ancestor.
	s.wnNX = Resize(s.wnNX, len(s.TQ.Nodes))
	s.wnNY = Resize(s.wnNY, len(s.TQ.Nodes))
	s.wnNZ = Resize(s.wnNZ, len(s.TQ.Nodes))
	for n := len(s.TQ.Nodes) - 1; n >= 0; n-- {
		nd := &s.TQ.Nodes[n]
		var sum geom.Vec3
		if nd.Leaf {
			for i := nd.Start; i < nd.Start+nd.Count; i++ {
				sum = sum.Add(s.wn(i))
			}
		} else {
			for _, ch := range nd.Children {
				if ch != octree.NoChild {
					sum = sum.Add(s.nodeWN(ch))
				}
			}
		}
		s.wnNX[n], s.wnNY[n], s.wnNZ[n] = sum.X, sum.Y, sum.Z
	}

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

// wn returns w_q·n_q of the q-point at tree-order index j.
func (s *BornSolver) wn(j int32) geom.Vec3 { return geom.Vec3{X: s.wnX[j], Y: s.wnY[j], Z: s.wnZ[j]} }

// nodeWN returns ñ_Q of T_Q node q.
func (s *BornSolver) nodeWN(q int32) geom.Vec3 {
	return geom.Vec3{X: s.wnNX[q], Y: s.wnNY[q], Z: s.wnNZ[q]}
}

// MemoryBytes is the memory the solver holds: both octrees and the
// per-point and per-node payload streams, at their capacity.
func (s *BornSolver) MemoryBytes() int64 {
	floats := cap(s.atomR) + cap(s.wnX) + cap(s.wnY) + cap(s.wnZ) + cap(s.wnNX) + cap(s.wnNY) + cap(s.wnNZ) +
		cap(s.aRange) + cap(s.aCent)
	return s.TA.MemoryBytes() + s.TQ.MemoryBytes() + 8*int64(floats)
}

// Eps returns the configured approximation parameter.
func (s *BornSolver) Eps() float64 { return s.cfg.Eps }

// NumAtoms returns the number of atoms.
func (s *BornSolver) NumAtoms() int { return len(s.atomR) }

// NumQLeaves returns the number of leaves of the q-point octree — the unit
// of node-based work division for the Born phase (paper Fig. 4, step 2).
func (s *BornSolver) NumQLeaves() int { return s.TQ.NumLeaves() }

// NewAccumulators allocates a zeroed (s_A per T_A node, s_a per atom) pair.
func (s *BornSolver) NewAccumulators() (sNode, sAtom []float64) {
	return make([]float64, len(s.TA.Nodes)), make([]float64, len(s.atomR))
}

// PushIntegrals implements PUSH-INTEGRALS-TO-ATOMS: it pushes ancestor
// sums down T_A and converts accumulated integrals into Born radii for the
// atoms whose tree-order index lies in [lo, hi) — the per-process atom
// segment of Fig. 4 step 4. R is written in tree order (callers use
// RadiiToOriginal for the original order). Subtrees disjoint from [lo, hi)
// are pruned, which is how each process traverses only its part of the
// tree; the number of nodes actually visited is returned for the time
// model.
func (s *BornSolver) PushIntegrals(sNode, sAtom []float64, lo, hi int32, R []float64) int64 {
	if len(s.TA.Nodes) == 0 {
		return 0
	}
	return s.pushDown(0, 0, sNode, sAtom, lo, hi, R)
}

func (s *BornSolver) pushDown(n int32, anc float64, sNode, sAtom []float64, lo, hi int32, R []float64) int64 {
	nd := &s.TA.Nodes[n]
	if nd.Start+nd.Count <= lo || nd.Start >= hi {
		return 0
	}
	visited := int64(1)
	total := anc + sNode[n]
	if nd.Leaf {
		from, to := nd.Start, nd.Start+nd.Count
		if from < lo {
			from = lo
		}
		if to > hi {
			to = hi
		}
		for i := from; i < to; i++ {
			if s.r4 {
				R[i] = gb.BornFromIntegralR4(sAtom[i]+total, s.atomR[i], s.rcap)
			} else {
				R[i] = gb.BornFromIntegral(sAtom[i]+total, s.atomR[i], s.rcap)
			}
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

// RadiiToOriginal converts tree-order Born radii to original atom order.
func (s *BornSolver) RadiiToOriginal(treeOrder []float64) []float64 {
	out := make([]float64, len(treeOrder))
	for i, orig := range s.TA.Perm {
		out[orig] = treeOrder[i]
	}
	return out
}
