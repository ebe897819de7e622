package core

import (
	"math"

	"octgb/internal/gb"
	"octgb/internal/geom"
	"octgb/internal/octree"
)

// EpolConfig controls the APPROX-EPOL treecode.
type EpolConfig struct {
	// Eps is the energy approximation parameter ε (>0); paper uses 0.9.
	// It controls both the well-separatedness test
	// r_UV > (r_U + r_V)(1 + 2/ε) and the Born-radius bin width (bins are
	// geometric with ratio 1+ε).
	Eps float64
	// LeafSize is the octree leaf capacity (≤0 → default). Ignored when
	// the solver is built from an existing tree.
	LeafSize int
}

func (c EpolConfig) withDefaults() EpolConfig {
	if c.Eps <= 0 {
		c.Eps = 0.9
	}
	return c
}

// EpolSolver holds the immutable state of the energy treecode: the atoms
// octree with charges and Born radii in tree order, and the per-node
// charge-by-Born-radius-bin aggregates q_U[k] of Fig. 3.
type EpolSolver struct {
	T   *octree.Tree
	cfg EpolConfig

	q    []float64 // charges, tree order
	R    []float64 // Born radii, tree order
	invR []float64 // 1/R, tree order — lets the flat kernels form the
	// exp argument −d²/(4RᵢRⱼ) as (−d²·0.25·invRᵢ)·invRⱼ with two
	// multiplies instead of a divide (the divider unit is the near-field
	// kernel's scarcest resource; see DESIGN.md §11)
	Rmin  float64
	M     int       // number of Born-radius bins (the paper's M_ε)
	bins  []float64 // node-major [node*M + k] charge sums
	binOf []int32   // per-atom bin index, tree order
	binRR []float64 // R_min²·(1+ε)^s for s = i+j, len 2M-1 (precomputed)
	sep   float64   // separation factor 1 + 2/ε
	sep2  float64   // sep², for the squared-distance acceptance test

	// Compressed nonzero-bin layout for the flat far-field kernel
	// (lists.go): per node, only the occupied bins. nzStart[n]..nzStart[n+1]
	// index into nzBin (bin index, ascending) and nzQ (charge sum). Most of
	// a node's M_ε bins are empty — this is the charge layout the flat
	// kernels iterate so the inner loops carry no zero-skip branches.
	nzStart []int32
	nzBin   []int32
	nzQ     []float64

	// AoS row tables for the amd64 near-field vector kernel
	// (epolnear_amd64.go). uRange packs each node's [start, end) atom
	// range into one int64 so the assembly loads a row's bounds with a
	// single instruction; uPos holds (x, y, z, pad) and uQRG
	// (q, R, −0.25/R, pad) per atom at a 32-byte stride so one cursor
	// register addresses all six per-row broadcast invariants.
	uRange []int64
	uPos   []float64
	uQRG   []float64

	// leafNo is the dense leaf index of every leaf node (T.LeafIdx
	// inverted) — what blockWeight picks a mutual block's owner from.
	leafNo []int32

	// dual is the held dual energy list (BuildDualList); empty until built.
	dual DualList

	// restricted marks a Restrict copy, which shares its parent's bins and
	// tree skeleton and so is never handed back (Release).
	restricted bool
}

// buildVecTables (re)packs the broadcast row tables from the solver's
// current q/R/invR and tree SoA mirrors into the tables' own storage.
// Called at construction, and again by Restrict (on fresh tables) so the
// NaN poison propagates into the vector path; SetResident patches the
// tables in place instead.
func (s *EpolSolver) buildVecTables() {
	s.uRange = Resize(s.uRange, len(s.T.Nodes))
	for n := range s.T.Nodes {
		lo, hi := s.T.PointRange(int32(n))
		s.uRange[n] = int64(lo) | int64(hi)<<32
	}
	s.uPos = Resize(s.uPos, 4*len(s.q))
	s.uQRG = Resize(s.uQRG, 4*len(s.q))
	for i := range s.q {
		s.uPos[4*i], s.uPos[4*i+1], s.uPos[4*i+2], s.uPos[4*i+3] = s.T.X[i], s.T.Y[i], s.T.Z[i], 0
		s.uQRG[4*i], s.uQRG[4*i+1], s.uQRG[4*i+2], s.uQRG[4*i+3] = s.q[i], s.R[i], -0.25*s.invR[i], 0
	}
}

// epolFar2 is the squared form of the paper's well-separatedness test
// r_UV > (r_U + r_V)·(1 + 2/ε): d2 > (ru+rv)²·sep². Both sides are
// non-negative, so the strict inequality carries over exactly; no square
// root is taken per visited node pair.
func epolFar2(d2, ru, rv, sep2 float64) bool {
	r := ru + rv
	return d2 > r*r*sep2
}

// NewEpolSolver builds the energy treecode state over an existing atoms
// octree. charges and bornR are in ORIGINAL atom order; tree.Perm maps them.
// The solver shares the tree; its own storage is a released solver's
// (Release) when Free holds one that fits, and the solver is the same
// either way.
func NewEpolSolver(tree *octree.Tree, charges, bornR []float64, cfg EpolConfig) *EpolSolver {
	cfg = cfg.withDefaults()
	n := len(tree.Points)
	s := Take[EpolSolver](&Free, n)
	s.T, s.cfg, s.sep = tree, cfg, 1+2/cfg.Eps
	s.dual.reset()
	s.q, s.R, s.invR = Resize(s.q, n), Resize(s.R, n), Resize(s.invR, n)
	s.sep2 = s.sep * s.sep
	for i, orig := range tree.Perm {
		s.q[i] = charges[orig]
		s.R[i] = bornR[orig]
		s.invR[i] = 1 / s.R[i]
	}

	// Born-radius bins: geometric with ratio (1+ε) from R_min.
	s.Rmin = math.Inf(1)
	rmax := 0.0
	for _, r := range s.R {
		if r < s.Rmin {
			s.Rmin = r
		}
		if r > rmax {
			rmax = r
		}
	}
	if n == 0 {
		s.Rmin, rmax = 1, 1
	}
	logRatio := math.Log(1 + cfg.Eps)
	s.M = 1
	if rmax > s.Rmin {
		s.M = int(math.Floor(math.Log(rmax/s.Rmin)/logRatio)) + 1
	}

	// Per-atom bin index.
	s.binOf = Resize(s.binOf, n)
	for i, r := range s.R {
		k := 0
		if r > s.Rmin {
			k = int(math.Floor(math.Log(r/s.Rmin) / logRatio))
		}
		if k >= s.M {
			k = s.M - 1
		}
		s.binOf[i] = int32(k)
	}
	binOf := s.binOf

	// Per-node aggregates q_U[k]. Leaves fill from their atom ranges;
	// internal nodes sum their children (bottom-up by reverse index: in
	// this layout children always have larger indices than parents).
	s.bins = Resize(s.bins, len(tree.Nodes)*s.M)
	clear(s.bins)
	for ni := len(tree.Nodes) - 1; ni >= 0; ni-- {
		nd := &tree.Nodes[ni]
		row := s.bins[ni*s.M : (ni+1)*s.M]
		if nd.Leaf {
			for i := nd.Start; i < nd.Start+nd.Count; i++ {
				row[binOf[i]] += s.q[i]
			}
			continue
		}
		for _, ch := range nd.Children {
			if ch == octree.NoChild {
				continue
			}
			crow := s.bins[int(ch)*s.M : (int(ch)+1)*s.M]
			for k := 0; k < s.M; k++ {
				row[k] += crow[k]
			}
		}
	}

	// Precompute R_min²(1+ε)^(i+j) for all bin-pair sums.
	s.binRR = Resize(s.binRR, 2*s.M-1)
	for t := range s.binRR {
		s.binRR[t] = s.Rmin * s.Rmin * math.Pow(1+cfg.Eps, float64(t))
	}

	// Compress the node-major bins into the nonzero-only layout.
	s.nzStart = Resize(s.nzStart, len(tree.Nodes)+1)
	s.nzBin, s.nzQ = s.nzBin[:0], s.nzQ[:0]
	for ni := 0; ni < len(tree.Nodes); ni++ {
		s.nzStart[ni] = int32(len(s.nzBin))
		row := s.bins[ni*s.M : (ni+1)*s.M]
		for k, qk := range row {
			if qk != 0 {
				s.nzBin = append(s.nzBin, int32(k))
				s.nzQ = append(s.nzQ, qk)
			}
		}
	}
	s.nzStart[len(tree.Nodes)] = int32(len(s.nzBin))
	s.buildVecTables()
	s.leafNo = Resize(s.leafNo, len(tree.Nodes)) // read at leaves only
	for i, n := range tree.LeafIdx {
		s.leafNo[n] = int32(i)
	}
	return s
}

// MemoryBytes is the memory the solver holds beside the atoms octree it
// shares with the Born phase: the per-atom charge, radius and bin streams,
// the per-node charge bins in both layouts, the vector row tables and the
// held dual list's store.
func (s *EpolSolver) MemoryBytes() int64 {
	floats := cap(s.q) + cap(s.R) + cap(s.invR) + cap(s.bins) + cap(s.binRR) + cap(s.nzQ) +
		cap(s.uRange) + cap(s.uPos) + cap(s.uQRG)
	ints := cap(s.binOf) + cap(s.nzStart) + cap(s.nzBin) + cap(s.leafNo)
	return 8*int64(floats) + 4*int64(ints) + s.dual.bytes()
}

// NumLeaves returns the number of leaves of the atoms octree — the unit of
// node-based work division for the energy phase (Fig. 4 step 6).
func (s *EpolSolver) NumLeaves() int { return s.T.NumLeaves() }

// EnergyScale is the constant −τ·k_e/2 that converts a raw sum — Σ over all
// ordered atom pairs (i, j), the diagonal included, of q_i·q_j/f_GB — into
// kcal/mol. The leaf-driven and the dual traversals both add each mutual
// block once and double it (blockWeight, BuildEpolDualList), so they
// produce the same kind of raw sum and share the constant.
func EnergyScale() float64 {
	return -0.5 * gb.Tau(gb.SolventDielectric) * gb.CoulombConstant
}

// ancestors appends the proper ancestors of node v to dst, parent first.
func (s *EpolSolver) ancestors(v int32, dst []int32) []int32 {
	for p := s.T.Nodes[v].Parent; p != octree.NoChild; p = s.T.Nodes[p].Parent {
		dst = append(dst, p)
	}
	return dst
}

// blockWeight is the one rule by which the leaf-driven traversals share
// the exact leaf–leaf blocks: what the block of leaf u counts for in the
// sum of driver leaf v, whose proper ancestors are vAnc. Driver v always
// reaches u through ancestors that are not far from v. When u's own
// traversal would take an ancestor of v as a far cell, the block is
// one-sided — nothing else stands for these atom pairs in this order — and
// counts once, as does a leaf's block with itself. Otherwise (v, u) is in
// u's traversal too, with the same value, since the pair term is
// symmetric: one of the two drivers evaluates the block and counts it
// twice, the other skips it. The owner follows from the two dense leaf
// indices alone — the larger when their sum is odd, else the smaller, so
// every leaf owns about half of its mutual blocks and rank segments stay
// balanced (OwnsMutualBlock) — hence the evaluated blocks, and the energy,
// do not depend on how leaves are divided over ranks.
func (s *EpolSolver) blockWeight(u, v int32, vAnc []int32) int {
	if u == v {
		return 1
	}
	t := s.T
	ux, uy, uz, ur := t.CX[u], t.CY[u], t.CZ[u], t.CR[u]
	for _, p := range vAnc {
		dx, dy, dz := t.CX[p]-ux, t.CY[p]-uy, t.CZ[p]-uz
		if epolFar2(dx*dx+dy*dy+dz*dz, t.CR[p], ur, s.sep2) {
			return 1
		}
	}
	if OwnsMutualBlock(s.leafNo[u], s.leafNo[v]) {
		return 2
	}
	return 0
}

// OwnsMutualBlock reports whether driver leaf v evaluates the exact block
// it shares with leaf u, when each of the two is in the other's near list:
// the owner counts the block twice and the other driver skips it. Both are
// dense leaf indices; the owner is the larger one when their sum is odd,
// else the smaller. blockWeight and the session's mirrored entries both
// decide ownership here.
func OwnsMutualBlock(u, v int32) bool {
	return ((u+v)&1 == 1) == (v > u)
}

// farPair is the one far-field form, Fig. 3 step 2: the bin-pair terms
// q_U[i]·q_V[j] / f_GB between nodes u and v, with R_u·R_v ≈ binRR[i+j] =
// R_min²(1+ε)^(i+j). Each side's occupied Born-radius bins (bin index
// ascending) and charge sums are bins and qs over [start[k], start[k+1])
// for k = ku, kv: the nodes' compressed layout (EvalEpolFarPair), or u's
// bins and the partial bins of a leaf's owned rows side by side
// (binApproxRows). One pair of arrays for both sides keeps the inner
// loop's operands in registers. The squared centre distance comes straight
// from the SoA node-centre mirrors (no sqrt), and the exponential is the
// near kernels' expNeg (its argument is never positive), within 1e-15
// relative of math.Exp.
//
// It is a loop, not a scalar term called per bin pair: a term that
// inlines expNeg is over the compiler's inlining budget, and calling one
// per bin pair made the far entries a quarter slower.
func (s *EpolSolver) farPair(u, v int32, bins []int32, qs []float64, start []int32, ku, kv int32) float64 {
	cx, cy, cz := s.T.CX, s.T.CY, s.T.CZ
	ddx, ddy, ddz := cx[u]-cx[v], cy[u]-cy[v], cz[u]-cz[v]
	d2 := ddx*ddx + ddy*ddy + ddz*ddz
	uLo, uHi := start[ku], start[ku+1]
	vLo, vHi := start[kv], start[kv+1]
	binRR := s.binRR
	var sum float64
	for a := uLo; a < uHi; a++ {
		qi, bi := qs[a], bins[a]
		for b := vLo; b < vHi; b++ {
			rr := binRR[bi+bins[b]]
			sum += qi * qs[b] / math.Sqrt(d2+rr*expNeg(-d2/(4*rr)))
		}
	}
	return sum
}

// binIndex returns the Born-radius bin of atom i (tree order).
func (s *EpolSolver) binIndex(i int32) int { return int(s.binOf[i]) }

// epolPairKind is what the dual traversal does with a node pair.
type epolPairKind int

const (
	epolSplit epolPairKind = iota // replaced by its children (epolChildren)
	epolNear                      // exact block: a leaf's self pair, or two leaves
	epolFar                       // well-separated mutual pair: bin-pair approximation
)

// epolKind classifies one pair of the dual traversal. It and epolChildren
// are the whole decomposition rule; the recursion, the list builder and
// the frontier only differ in what they do with the outcome.
func (s *EpolSolver) epolKind(p NodePair) epolPairKind {
	un := &s.T.Nodes[p.A]
	if p.A == p.B {
		if un.Leaf {
			return epolNear
		}
		return epolSplit
	}
	vn := &s.T.Nodes[p.B]
	switch {
	case epolFar2(un.Center.Dist2(vn.Center), un.Radius, vn.Radius, s.sep2):
		return epolFar
	case un.Leaf && vn.Leaf:
		return epolNear
	}
	return epolSplit
}

// epolChildren appends the pairs that replace an epolSplit pair to dst, in
// REVERSE visit order — dst is usually a traversal stack, which then pops
// them in visit order: for a self pair (c_0, c_0), (c_0, c_1) … (c_0, c_7),
// (c_1, c_1), (c_1, c_2) …; for a mutual pair the split node's children in
// ascending order, each paired with the other node.
func (s *EpolSolver) epolChildren(p NodePair, dst []NodePair) []NodePair {
	un := &s.T.Nodes[p.A]
	if p.A == p.B {
		for i := 7; i >= 0; i-- {
			ci := un.Children[i]
			if ci == octree.NoChild {
				continue
			}
			for j := 7; j > i; j-- {
				if cj := un.Children[j]; cj != octree.NoChild {
					dst = append(dst, NodePair{ci, cj})
				}
			}
			dst = append(dst, NodePair{ci, ci})
		}
		return dst
	}
	vn := &s.T.Nodes[p.B]
	if vn.Leaf || (!un.Leaf && un.Radius >= vn.Radius) {
		for c := 7; c >= 0; c-- {
			if ch := un.Children[c]; ch != octree.NoChild {
				dst = append(dst, NodePair{ch, p.B})
			}
		}
		return dst
	}
	// A mutual pair is unordered, so the children of the split node are
	// written first whichever it was: the pairs of one split then share
	// their B, and the near kernels pack a v-leaf once per such run.
	for c := 7; c >= 0; c-- {
		if ch := vn.Children[c]; ch != octree.NoChild {
			dst = append(dst, NodePair{ch, p.A})
		}
	}
	return dst
}

// Restrict returns a copy of the solver in which every atom NOT under one
// of the resident leaf nodes has its charge, Born radius and position
// poisoned with NaN. The tree skeleton (node geometry and charge bins) is
// retained — it is the part a distributed-data rank replicates. Any
// traversal that touches a non-resident atom's data then yields NaN, so a
// finite result PROVES the resident set (owned + ghosts from NeededLeaves)
// was sufficient. This is the verification device behind the
// distributed-data engine (paper §VI future work).
func (s *EpolSolver) Restrict(residentLeaves []int32) *EpolSolver {
	out := *s
	out.restricted = true
	nan := math.NaN()
	out.q = make([]float64, len(s.q))
	out.R = make([]float64, len(s.R))
	out.invR = make([]float64, len(s.R))
	ptsCopy := make([]geom.Vec3, len(s.T.Points))
	for i := range out.q {
		out.q[i], out.R[i], out.invR[i] = nan, nan, nan
		ptsCopy[i] = geom.V(nan, nan, nan)
	}
	for _, node := range residentLeaves {
		nd := &s.T.Nodes[node]
		for i := nd.Start; i < nd.Start+nd.Count; i++ {
			out.q[i], out.R[i], out.invR[i] = s.q[i], s.R[i], s.invR[i]
			ptsCopy[i] = s.T.Points[i]
		}
	}
	// Shallow-copy the tree with the poisoned point payload; node geometry
	// (centers/radii) is skeleton data and stays. The charge bins (and
	// their compressed form) are skeleton data too and remain shared. The
	// SoA mirrors must be refilled so the flat kernels see the poison.
	tree := *s.T
	tree.Points = ptsCopy
	tree.FillSoA()
	out.T = &tree
	// Repack the vector-kernel row tables from the poisoned data into new
	// ones — sharing them would let the amd64 near kernel read real values
	// past the poison.
	out.uRange, out.uPos, out.uQRG = nil, nil, nil
	out.buildVecTables()
	return &out
}

// SetResident re-installs real data for the atoms under the given leaf
// into a Restricted solver (used when ghost data arrives from its owner).
func (s *EpolSolver) SetResident(leaf int32, q, R []float64, pts []geom.Vec3) {
	nd := &s.T.Nodes[leaf]
	for k := int32(0); k < nd.Count; k++ {
		i := nd.Start + k
		s.q[i], s.R[i], s.invR[i] = q[k], R[k], 1/R[k]
		s.T.Points[i] = pts[k]
		s.T.X[i], s.T.Y[i], s.T.Z[i] = pts[k].X, pts[k].Y, pts[k].Z
		s.uPos[4*i], s.uPos[4*i+1], s.uPos[4*i+2] = pts[k].X, pts[k].Y, pts[k].Z
		s.uQRG[4*i], s.uQRG[4*i+1], s.uQRG[4*i+2] = q[k], R[k], -0.25*s.invR[i]
	}
}

// ResidentData extracts the atom payload under a leaf (for ghost sends).
func (s *EpolSolver) ResidentData(leaf int32) (q, R []float64, pts []geom.Vec3) {
	nd := &s.T.Nodes[leaf]
	q = append(q, s.q[nd.Start:nd.Start+nd.Count]...)
	R = append(R, s.R[nd.Start:nd.Start+nd.Count]...)
	pts = append(pts, s.T.Points[nd.Start:nd.Start+nd.Count]...)
	return q, R, pts
}

// NeededLeaves runs a skeleton-only mirror of the APPROX-EPOL(root, V)
// traversal for the given leaf and returns the node indices of every leaf
// whose ATOM DATA the exact near-field part would touch (V's own leaf
// included) — the blocks this driver evaluates, not the mutual ones whose
// other leaf owns them (blockWeight). Far-field cells need only the
// per-node charge bins, which are part of the small tree skeleton. This is
// the analysis primitive behind the data-distribution variant of the
// paper's §VI future work: a rank owning a set of leaves needs only those
// leaves' atoms, the skeleton, and the "ghost" leaves returned here.
func (s *EpolSolver) NeededLeaves(vLeaf int) []int32 {
	var out []int32
	v := s.T.LeafIdx[vLeaf]
	var buf [64]int32
	s.neededVisit(0, v, s.ancestors(v, buf[:0]), &out)
	return out
}

func (s *EpolSolver) neededVisit(u, v int32, vAnc []int32, out *[]int32) {
	un := &s.T.Nodes[u]
	vn := &s.T.Nodes[v]
	if un.Leaf {
		if s.blockWeight(u, v, vAnc) != 0 {
			*out = append(*out, u)
		}
		return
	}
	if epolFar2(un.Center.Dist2(vn.Center), un.Radius, vn.Radius, s.sep2) {
		return // far field: bins only, no atom data needed
	}
	for _, ch := range un.Children {
		if ch != octree.NoChild {
			s.neededVisit(ch, v, vAnc, out)
		}
	}
}

// NumBins returns M_ε.
func (s *EpolSolver) NumBins() int { return s.M }
