package core

import (
	"math"

	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/octree"
)

// The oracles below have no caller outside the tests: whole-list builders
// the streamed traversals are checked against, a one-entry evaluator, a
// dual recursion started below the root, and a solver over a tree built
// from a molecule.

// BuildBornList runs the single-tree APPROX-INTEGRALS traversal for the
// q-leaves [qLo, qHi) and returns the interaction list. Evaluating the
// list (EvalBornList) is equivalent to running AccumulateQLeaf over the
// same leaf range.
func (s *BornSolver) BuildBornList(qLo, qHi int) *InteractionList {
	l := new(InteractionList)
	s.fillBornLeaves(l, qLo, qHi, math.MaxInt)
	return l
}

// BuildEpolList runs the leaf-driven APPROX-EPOL traversal for the
// atoms-octree leaves [vLo, vHi) and returns the interaction list.
// Evaluating it is equivalent to summing LeafEnergy over the same range.
func (s *EpolSolver) BuildEpolList(vLo, vHi int) *InteractionList {
	l := new(InteractionList)
	for vl := vLo; vl < vHi; vl++ {
		s.appendEpolLeaf(l, vl)
	}
	return l
}

// EvalEpolNearPair evaluates one exact near-field entry: all ordered atom
// pairs (u-leaf rows × v-leaf columns), including self pairs when the
// leaves coincide. Returns the block's own raw (unscaled) sum; what an entry
// counts for in its list is applied by the range kernels.
func (s *EpolSolver) EvalEpolNearPair(u, v int32) float64 {
	one := [1]NodePair{{u, v}}
	return s.evalEpolNearRun(one[:], v)
}

// AccumulateDualPair runs the dual-tree Born recursion from the given
// (atoms-node, q-node) pair.
func (s *BornSolver) AccumulateDualPair(a, q int32, sNode, sAtom []float64) Stats {
	var st Stats
	s.approxIntegralsDual(a, q, sNode, sAtom, &st)
	return st
}

// NewEpolSolverFromMolecule builds the octree internally from the molecule
// with leaves of leafSize atoms (≤0 → default), charges from the atoms and
// Born radii supplied in original order.
func NewEpolSolverFromMolecule(mol *molecule.Molecule, bornR []float64, leafSize int, cfg EpolConfig) *EpolSolver {
	positions := make([]geom.Vec3, mol.N())
	charges := make([]float64, mol.N())
	for i := range mol.Atoms {
		positions[i] = mol.Atoms[i].Pos
		charges[i] = mol.Atoms[i].Charge
	}
	tree := octree.Build(positions, leafSize)
	return NewEpolSolver(tree, charges, bornR, cfg)
}

// EvalEpolFarPair evaluates one far-field entry over the nodes' bin
// moments on the scalar form (farPair). Returns the raw sum.
func (s *EpolSolver) EvalEpolFarPair(u, v int32) float64 {
	return s.farPair(u, v, &s.nz, u, v)
}

// BinChargeSum returns Σ_k q_U[k] for a node — used by invariant tests
// (must equal the total charge under the node).
func (s *EpolSolver) BinChargeSum(node int32) float64 {
	var sum float64
	lo, hi := s.nz.group(node)
	for e := lo; e < hi; e++ {
		sum += s.nz.mom[momentFloats*e]
	}
	return sum
}
