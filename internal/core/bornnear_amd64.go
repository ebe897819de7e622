package core

// amd64 dispatch for the vectorized Born near-field kernel. The Go
// reference loop (evalBornNearRun) stays the oracle-parity fallback —
// this path repacks each run's q-tile into a zero-padded stack block and
// hands whole runs to the AVX2+FMA kernel in bornnear_amd64.s.

// bornTileCap is the per-row capacity of the packed q-tile, in elements.
// Leaves normally hold ≤ LeafSize (16) points; depth-capped degenerate
// leaves (or large configured LeafSize) can exceed it, and those runs
// fall back to the scalar kernel.
const bornTileCap = 64

// bornNearArgs is the argument block for bornNearRunAVX2. Field offsets
// are hard-coded in bornnear_amd64.s — keep the layouts in sync.
type bornNearArgs struct {
	tile   *float64  //  0: packed q-tile, 6 rows × bornTileCap (qx qy qz wx wy wz)
	ents   *NodePair //  8: run entries (all sharing one q-leaf)
	nents  int64     // 16
	ranges *int64    // 24: aRange — T_A point ranges packed start|end<<32
	ax     *float64  // 32: T_A SoA positions
	ay     *float64  // 40
	az     *float64  // 48
	sAtom  *float64  // 56: near-field accumulator, indexed by atom row
	nv     int64     // 64: padded tile length in elements (multiple of 4)
	r4     int64     // 72: nonzero → 1/d⁴ integrand, else 1/d⁶
	base   int64     // 80: atom row i accumulates into sAtom[i-base]
}

// bornNearRunAVX2 evaluates every (atom row × tile point) pair of the
// runs' entries with 4-wide AVX2+FMA lanes, accumulating into sAtom.
// Padding lanes carry w = 0 so they contribute exactly 0; coincident
// pairs (d² < 1e-12) are masked off bitwise, matching the scalar guard.
//
//go:noescape
func bornNearRunAVX2(a *bornNearArgs)

// packBornTile repacks q-leaf q's coordinates and quadrature weights into
// the zero-padded tile and returns the padded length. ok is false when the
// leaf holds more than bornTileCap points; the caller then runs the scalar
// kernel.
func (s *BornSolver) packBornTile(tile *[6 * bornTileCap]float64, q int32) (nv int, ok bool) {
	qlo, qhi := s.TQ.PointRange(q)
	n := int(qhi - qlo)
	if n > bornTileCap {
		return 0, false
	}
	qx := s.TQ.X[qlo:qhi]
	qy := s.TQ.Y[qlo:qhi][:n]
	qz := s.TQ.Z[qlo:qhi][:n]
	wx := s.wnX[qlo:qhi][:n]
	wy := s.wnY[qlo:qhi][:n]
	wz := s.wnZ[qlo:qhi][:n]
	for k := 0; k < n; k++ {
		tile[0*bornTileCap+k] = qx[k]
		tile[1*bornTileCap+k] = qy[k]
		tile[2*bornTileCap+k] = qz[k]
		tile[3*bornTileCap+k] = wx[k]
		tile[4*bornTileCap+k] = wy[k]
		tile[5*bornTileCap+k] = wz[k]
	}
	nv = (n + 3) &^ 3
	for k := n; k < nv; k++ {
		tile[0*bornTileCap+k] = 0
		tile[1*bornTileCap+k] = 0
		tile[2*bornTileCap+k] = 0
		tile[3*bornTileCap+k] = 0
		tile[4*bornTileCap+k] = 0
		tile[5*bornTileCap+k] = 0
	}
	return nv, true
}

// bornVecArgs is the argument block both vector paths start from: every
// field but the per-run ones (ents, nents, nv, base).
func (s *BornSolver) bornVecArgs(tile *[6 * bornTileCap]float64, sAtom []float64) bornNearArgs {
	args := bornNearArgs{
		tile:   &tile[0],
		ranges: &s.aRange[0],
		ax:     &s.TA.X[0],
		ay:     &s.TA.Y[0],
		az:     &s.TA.Z[0],
		sAtom:  &sAtom[0],
	}
	if s.r4 {
		args.r4 = 1
	}
	return args
}

// evalBornNearRangeVec is EvalBornNearRange's amd64 vector path. Row
// sums reassociate across the 4 lanes, so per-element results differ
// from the scalar kernel only by summation rounding — well inside the
// 1e-12 golden pins (the near integrand has no catastrophic
// cancellation: see TestBornNearVecMatchesScalar).
func (s *BornSolver) evalBornNearRangeVec(near []NodePair, sAtom []float64) {
	var tile [6 * bornTileCap]float64
	args := s.bornVecArgs(&tile, sAtom)
	for len(near) > 0 {
		q := near[0].B
		run := 1
		for run < len(near) && near[run].B == q {
			run++
		}
		nv, ok := s.packBornTile(&tile, q)
		if !ok {
			s.evalBornNearRun(near[:run], q, sAtom)
			near = near[run:]
			continue
		}
		args.ents = &near[0]
		args.nents = int64(run)
		args.nv = int64(nv)
		bornNearRunAVX2(&args)
		near = near[run:]
	}
}

// evalBornRowBlocksVec is EvalBornRowBlocks' amd64 vector path: the tile
// buffer and the argument block are set up once, and each q-leaf is one
// single-entry run of the same kernel with the accumulator rebased onto
// the entry's block — the arithmetic of evalBornNearRangeVec on a
// one-entry list, without its per-call set-up. The entry's row range comes
// from a one-element table holding [lo, hi) instead of aRange, so the
// kernel visits just those rows; alo is the leaf's first row.
func (s *BornSolver) evalBornRowBlocksVec(alo, lo, hi int32, qLeaves []int32, out []float64) {
	var tile [6 * bornTileCap]float64
	cnt := len(out) / len(qLeaves)
	rows := [1]int64{int64(lo) | int64(hi)<<32}
	one := [1]NodePair{} // entry 0 of the rows table
	args := s.bornVecArgs(&tile, out)
	args.ranges = &rows[0]
	args.ents = &one[0]
	args.nents = 1
	for k, ql := range qLeaves {
		q := s.TQ.LeafIdx[ql]
		nv, ok := s.packBornTile(&tile, q)
		if !ok {
			s.evalBornNearRows(q, lo, hi, out[k*cnt:(k+1)*cnt], alo)
			continue
		}
		args.nv = int64(nv)
		args.base = int64(alo) - int64(k*cnt)
		bornNearRunAVX2(&args)
	}
}
