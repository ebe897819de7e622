package core

import (
	"math"
	"slices"

	"octgb/internal/gb"
	"octgb/internal/geom"
	"octgb/internal/octree"
)

// EpolConfig controls the APPROX-EPOL treecode. The solver is always
// built over an existing atoms octree (NewEpolSolver), so the tree's leaf
// size is the tree's, not the config's.
type EpolConfig struct {
	// Eps is the energy approximation parameter ε (>0); paper uses 0.9.
	// It controls both the well-separatedness test
	// r_UV > (r_U + r_V)(1 + farReach·2/ε) (epolFar2) and the Born-radius
	// bin width (bins are geometric with ratio 1+ε).
	Eps float64
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
	Rmin   float64
	M      int       // number of Born-radius bins (the paper's M_ε)
	binOf  []int32   // per-atom bin index, tree order
	binRR  []float64 // R_min²·(1+ε)^s for s = i+j, len 2M-1 (precomputed)
	invRR4 []float64 // 1/(4·binRR[s]): the exp argument without a divide
	sep    float64   // separation factor 1 + farReach·2/ε
	sep2   float64   // sep², for the squared-distance acceptance test

	// nz is every node's far-field charge layout: its occupied
	// Born-radius bins with their charge, dipole and second moment
	// (binMoments), node n's at nz.start[n]..nz.start[n+1]. Most of a
	// node's M_ε bins are empty, so the far kernel's inner loops carry no
	// zero-skip branches. acc is the per-node scratch it is built in.
	nz  binMoments
	acc []float64
	// farBlk is nz again as lane blocks for the amd64 far kernel
	// (epolfar_amd64.s): node n's farBlockFloats floats hold, for each of
	// the ten moments and then the bin id (its int64 bits), one vector of
	// farSlots slots, one per occupied bin in nz's order, zero past the
	// last. A node of more than farSlots bins has an empty block, and its
	// entries take farPair.
	farBlk []float64

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

// farSlots is the most bins a far lane block holds, and farBlockFloats a
// block's size: eleven vectors of farSlots.
const (
	farSlots       = 4
	farBlockFloats = (momentFloats + 1) * farSlots
)

// buildFarBlocks packs nz into farBlk.
func (s *EpolSolver) buildFarBlocks() {
	s.farBlk = Resize(s.farBlk, farBlockFloats*len(s.T.Nodes))
	clear(s.farBlk)
	for n := range s.T.Nodes {
		lo, hi := s.nz.group(int32(n))
		if hi-lo > farSlots {
			continue
		}
		blk := s.farBlk[farBlockFloats*n:][:farBlockFloats]
		for e := lo; e < hi; e++ {
			for j, m := range s.nz.mom[momentFloats*e:][:momentFloats] {
				blk[farSlots*j+e-lo] = m
			}
			blk[farSlots*momentFloats+e-lo] = math.Float64frombits(uint64(s.nz.bin[e]))
		}
	}
}

// epolFar2 is the squared form of the well-separatedness test
// r_UV > (r_U + r_V)·k: d2 > (ru+rv)²·sep². The paper prints k = 1 + 2/ε
// for its zeroth-order far term; farPair is second order, so k's excess
// over 1 is scaled by farReach as on the Born side, k = 1 + farReach·2/ε
// (2.2 at ε = 0.9). Both sides are non-negative, so the strict inequality
// carries over exactly; no square root is taken per visited node pair.
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
	s.T, s.cfg, s.sep = tree, cfg, 1+farReach*2/cfg.Eps
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

	// Precompute R_min²(1+ε)^(i+j) for all bin-pair sums.
	s.binRR = Resize(s.binRR, 2*s.M-1)
	s.invRR4 = Resize(s.invRR4, 2*s.M-1)
	for t := range s.binRR {
		s.binRR[t] = s.Rmin * s.Rmin * math.Pow(1+cfg.Eps, float64(t))
		s.invRR4[t] = 1 / (4 * s.binRR[t])
	}

	// Per-node moments q_U[k], D_U[k], S_U[k] of Fig. 3's bins, each node's
	// summed from its own atoms about its centre.
	s.acc = Resize(s.acc, momentFloats*s.M)
	s.nz.reset()
	for ni := range tree.Nodes {
		lo, hi := tree.PointRange(int32(ni))
		s.nz.appendMoments(s, s.acc, lo, hi, int32(ni))
	}
	s.buildFarBlocks()
	s.buildVecTables()
	s.leafNo = Resize(s.leafNo, len(tree.Nodes)) // read at leaves only
	for i, n := range tree.LeafIdx {
		s.leafNo[n] = int32(i)
	}
	return s
}

// MemoryBytes is the memory the solver holds beside the atoms octree it
// shares with the Born phase: the per-atom charge, radius and bin streams,
// the per-node bin moments and their scratch, the vector row tables and
// the held dual list's store.
func (s *EpolSolver) MemoryBytes() int64 {
	floats := cap(s.q) + cap(s.R) + cap(s.invR) + cap(s.binRR) + cap(s.invRR4) + cap(s.acc) +
		cap(s.nz.mom) + cap(s.farBlk) + cap(s.uRange) + cap(s.uPos) + cap(s.uQRG)
	ints := cap(s.binOf) + cap(s.nz.start) + cap(s.nz.bin) + cap(s.leafNo)
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

// momentFloats is what one bin of binMoments carries: q, the three
// components of D and the six of S.
const momentFloats = 10

// binMoments is a compressed far-field charge layout. Group k — a node's
// bins, or the partial bins of a leaf's owned rows — is entries
// [start[k], start[k+1]): its occupied Born-radius bins in ascending
// order, bin[e] the index and mom[10e:10e+10] the moments, taken about
// the centre c of the group's node: the charge q = Σq, the dipole
// D = Σq(x−c) (x, y, z) and the second moment S = Σq(x−c)(x−c)ᵀ (xx, yy,
// zz, xy, xz, yz). A bin whose moments are all zero is left out.
type binMoments struct {
	start, bin []int32
	mom        []float64
}

// reset empties the layout, keeping its capacity.
func (m *binMoments) reset() {
	m.start, m.bin, m.mom = append(m.start[:0], 0), m.bin[:0], m.mom[:0]
}

// group returns group k's entry range.
func (m *binMoments) group(k int32) (lo, hi int) { return int(m.start[k]), int(m.start[k+1]) }

// appendGroup appends group k of src.
func (m *binMoments) appendGroup(src *binMoments, k int32) {
	lo, hi := src.group(k)
	m.bin = append(m.bin, src.bin[lo:hi]...)
	m.mom = append(m.mom, src.mom[momentFloats*lo:momentFloats*hi]...)
	m.start = append(m.start, int32(len(m.bin)))
}

// appendMoments appends one group: the moments of the solver's atoms
// [lo, hi) (tree order) about node c's centre, summed in acc
// (momentFloats·M floats of scratch).
func (m *binMoments) appendMoments(s *EpolSolver, acc []float64, lo, hi, c int32) {
	t := s.T
	cx, cy, cz := t.CX[c], t.CY[c], t.CZ[c]
	clear(acc)
	for i := lo; i < hi; i++ {
		q := s.q[i]
		x, y, z := t.X[i]-cx, t.Y[i]-cy, t.Z[i]-cz
		qx, qy, qz := q*x, q*y, q*z
		a := acc[momentFloats*int(s.binOf[i]):][:momentFloats]
		a[0] += q
		a[1], a[2], a[3] = a[1]+qx, a[2]+qy, a[3]+qz
		a[4], a[5], a[6] = a[4]+qx*x, a[5]+qy*y, a[6]+qz*z
		a[7], a[8], a[9] = a[7]+qx*y, a[8]+qx*z, a[9]+qy*z
	}
	for k := 0; k < len(acc); k += momentFloats {
		a := acc[k : k+momentFloats]
		if slices.ContainsFunc(a, func(x float64) bool { return x != 0 }) {
			m.bin = append(m.bin, int32(k/momentFloats))
			m.mom = append(m.mom, a...)
		}
	}
	m.start = append(m.start, int32(len(m.bin)))
}

// farPair is the one far-field form, Fig. 3 step 2: the bin-pair terms
// between nodes u and v, with R_u·R_v ≈ binRR[i+j] = R_min²(1+ε)^(i+j).
// Each side's bins are groups ku and kv of m: the nodes' own layout
// (evalEpolFar), or u's bins and the partial bins of a leaf's owned rows
// side by side (binApproxRows). The squared centre distance comes
// straight from the SoA node-centre mirrors.
//
// Each bin pair's term is second order in the node sizes over their
// distance. With r = c_u − c_v, an atom pair's squared distance is
// r² + δ, δ = 2r·(a−b) + |a−b|² for offsets a, b from the centres, and
// g(s) = 1/f_GB(s) expands to g + g′δ + ½g″δ². Summed over the two bins'
// charges through their moments, that is
//
//	g·q_a·q_b
//	+ g′·(q_b·(2r·D_a + tr S_a) + q_a·(tr S_b − 2r·D_b) − 2·D_a·D_b)
//	+ g″·(2q_b·rᵀS_a r + 2q_a·rᵀS_b r − 4(r·D_a)(r·D_b)),
//
// whose remainder is third order (TestEpolFarPairIsSecondOrder). With
// h = d² + RR·e, e = exp(−d²/4RR): g = h^−½, g′ = −½h^−³ᐟ²·(1 − e/4) and
// g″ = ¾h^−⁵ᐟ²·(1 − e/4)² − ½h^−³ᐟ²·e/(16RR), from one square root and
// one divide that do not wait on each other (invRR4 spares the
// exponential's argument a divide). A bin's projections on r
// (farFrame.bin) enter the pair terms, which need no other product with r.
//
// It is the scalar twin of the amd64 far kernel (epolfar_amd64.s), which
// gives the same bits on any CPU: every multiply-add is an explicit
// math.FMA where the kernel fuses, a product added by a plain + is
// converted (float64) so the compiler cannot fuse it, and the exponential
// is expNegFMA.
func (s *EpolSolver) farPair(u, v int32, m *binMoments, ku, kv int32) float64 {
	cx, cy, cz := s.T.CX, s.T.CY, s.T.CZ
	var f farFrame
	f.rx, f.ry, f.rz = cx[u]-cx[v], cy[u]-cy[v], cz[u]-cz[v]
	d2 := math.FMA(f.rz, f.rz, math.FMA(f.ry, f.ry, f.rx*f.rx))
	f.wxx, f.wyy, f.wzz = f.rx*f.rx, f.ry*f.ry, f.rz*f.rz
	f.wxy, f.wxz, f.wyz = 2*f.rx*f.ry, 2*f.rx*f.rz, 2*f.ry*f.rz
	bins, mom := m.bin, m.mom
	binRR, invRR4 := s.binRR, s.invRR4
	uLo, uHi := m.group(ku)
	vLo, vHi := m.group(kv)
	var sum float64
	for a := uLo; a < uHi; a++ {
		ma := mom[momentFloats*a:][:momentFloats]
		ca, sa, tra := f.bin(ma)
		u1, ca4 := math.FMA(2, ca, tra), 4*ca
		qa, ba := ma[0], bins[a]
		for b := vLo; b < vHi; b++ {
			mb := mom[momentFloats*b:][:momentFloats]
			cb, sb, trb := f.bin(mb)
			v1, qb := math.FMA(-2, cb, trb), mb[0]
			dd := math.FMA(ma[3], mb[3], math.FMA(ma[2], mb[2], ma[1]*mb[1]))
			x1 := math.FMA(qa, v1, math.FMA(qb, u1, -2*dd))
			x2 := math.FMA(-ca4, cb, 2*math.FMA(qa, sb, qb*sa))
			t := ba + bins[b]
			c4 := invRR4[t]
			e := expNegFMA(-d2 * c4)
			h := math.FMA(binRR[t], e, d2)
			hp := math.FMA(-0.25, e, 1)
			ih := 1 / h
			g0 := math.Sqrt(h) * ih
			p := 0.75 * (hp * hp) * x2
			q := math.FMA(0.5*hp, x1, e*(0.125*c4)*x2)
			sum += float64(g0 * math.FMA(ih, math.FMA(ih, p, -q), qa*qb))
		}
	}
	return sum
}

// farFrame is one far entry's r = c_u − c_v and the weights w of rᵀSr =
// Σ w·S over (xx, yy, zz, xy, xz, yz).
type farFrame struct {
	rx, ry, rz                   float64
	wxx, wyy, wzz, wxy, wxz, wyz float64
}

// bin returns a bin's projections on the frame: c = r·D, s = rᵀSr and
// tr S, from its moments mo (binMoments' order).
func (f *farFrame) bin(mo []float64) (c, s, tr float64) {
	mo = mo[:momentFloats]
	c = math.FMA(f.rz, mo[3], math.FMA(f.ry, mo[2], f.rx*mo[1]))
	s = math.FMA(f.wyz, mo[9], math.FMA(f.wxz, mo[8], math.FMA(f.wxy, mo[7],
		math.FMA(f.wzz, mo[6], math.FMA(f.wyy, mo[5], f.wxx*mo[4])))))
	return c, s, (mo[4] + mo[5]) + mo[6]
}

// epolPairKind is what the dual traversal does with a node pair.
type epolPairKind int

const (
	epolSplit epolPairKind = iota // replaced by its children (epolChildren)
	epolNear                      // exact block: a leaf's self pair, or two leaves
	epolFar                       // well-separated mutual pair: bin-pair approximation
)

// smallBlock reports whether two distinct nodes are leaves whose block
// holds no more atom pairs than one leaf may hold atoms (epolKind).
func (s *EpolSolver) smallBlock(un, vn *octree.Node) bool {
	return un.Leaf && vn.Leaf && int(un.Count)*int(vn.Count) <= s.T.LeafSize
}

// epolKind classifies one pair of the dual traversal. It and epolChildren
// are the whole decomposition rule; the recursion, the list builder and
// the frontier only differ in what they do with the outcome.
//
// Two leaves whose block holds no more atom pairs than one leaf may hold
// atoms (LeafSize) are exact, well separated or not: such a block costs
// no more than a handful of far bin pairs, and it is where the far form
// errs most — a few atoms, often bonded neighbours, whose node radii are
// near zero (a one-atom leaf's is zero, so the separation test takes it
// at any distance) and whose bin R·R is furthest from the atoms' own
// where d² is not large against 4R·R. At k = 2.2 such blocks put 400/7's
// dual energy 0.71 % off naive; exact, 0.13 % (EXPERIMENTS.md, "the E_pol
// far field carries charge moments").
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
	case s.smallBlock(un, vn):
		return epolNear
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
// poisoned with NaN. The tree skeleton (node geometry and bin moments) is
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
	// (centers/radii) is skeleton data and stays. The charge bins' moments
	// are skeleton data too and remain shared. The SoA mirrors must be
	// refilled so the flat kernels see the poison.
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
