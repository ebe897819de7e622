package core

import "math"

// amd64 dispatch for the vectorized energy near-field kernel. The Go
// reference loop (evalEpolNearRun) stays the oracle-parity fallback — this
// path packs each run's v-leaf tile into a zero-padded stack block and
// hands whole runs to the AVX2+FMA kernel in epolnear_amd64.s, which
// evaluates exp(−d²/4RᵢRⱼ) four lanes at a time with a VGATHERQPD table
// lookup against the same exp2Bits table expNeg uses.

// epolTileCap is the per-row capacity of the packed v-tile, in elements.
// Leaves normally hold ≤ LeafSize (16) points; depth-capped degenerate
// leaves (or large configured LeafSize) can exceed it, and those runs fall
// back to the scalar kernel.
const epolTileCap = 64

// epolNearArgs is the argument block for epolNearRunAVX2. Field offsets
// are hard-coded in epolnear_amd64.s — keep the layouts in sync.
type epolNearArgs struct {
	tile   *float64  //  0: packed v-tile, 6 rows × epolTileCap (x y z q R invR)
	ents   *NodePair //  8: run entries (all sharing one v-leaf), u id at offset 0
	nents  int64     // 16
	ranges *int64    // 24: uRange — node point ranges packed start|end<<32
	upos   *float64  // 32: uPos — (x, y, z, pad) per u-row atom
	uqrg   *float64  // 40: uQRG — (q, R, −0.25/R, pad) per u-row atom
	nv     int64     // 48: padded tile length in elements (multiple of 4)
}

// epolNearRunAVX2 evaluates every (u-row atom × tile atom) pair of the
// run's entries with 4-wide AVX2+FMA lanes and returns the raw sum.
// Padding lanes carry q = 0 (and R = invR = 1 so the exponential argument
// stays benign), contributing exactly 0. Self pairs are NOT special-cased
// in the lanes — the smooth kernel evaluates them to qᵢ²/√(fl(Rᵢ²)),
// which the Go wrapper swaps for the exact qᵢ²/Rᵢ afterwards.
//
//go:noescape
func epolNearRunAVX2(a *epolNearArgs) float64

// evalEpolNearRangeVec is EvalEpolNearRange's amd64 vector path for Exact
// float64 math. Per-term evaluation matches the scalar kernel's operation
// order except for FMA contraction in d² and the exponential's
// reduction/reconstruction roundings — all ~1 ulp per term, far inside
// the total-energy golden pin (the epol pin is on the total, which has
// orders of magnitude more reassociation slack than the per-element Born
// pins).
// evalEpolNearEntryValuesVec is EvalEpolNearEntryValues' amd64 vector
// path: one v-tile pack for the whole batch, then a one-entry kernel call
// per selected entry. A one-entry call through this path is arithmetic-
// identical to a one-entry evalEpolNearRangeVec call (same pack, same
// kernel invocation, same self-pair correction), which is what makes the
// batch bitwise interchangeable with per-entry range calls.
func (s *EpolSolver) evalEpolNearEntryValuesVec(near []NodePair, idxs []int32, out []float64) {
	v := near[0].B
	vlo, vhi := s.T.PointRange(v)
	n := int(vhi - vlo)
	if n > epolTileCap {
		// Degenerate oversized leaf: the range path would fall back to the
		// scalar run kernel for this v, so the per-entry values must too.
		if idxs == nil {
			for k := range near {
				out[k] = s.evalEpolNearRun(near[k:k+1], v)
			}
			return
		}
		for _, k := range idxs {
			out[k] = s.evalEpolNearRun(near[k:k+1], v)
		}
		return
	}
	if n == 0 {
		if idxs == nil {
			for k := range near {
				out[k] = 0
			}
			return
		}
		for _, k := range idxs {
			out[k] = 0
		}
		return
	}
	var tile [6 * epolTileCap]float64
	x, y, z := s.T.X, s.T.Y, s.T.Z
	for k := 0; k < n; k++ {
		j := int(vlo) + k
		tile[0*epolTileCap+k] = x[j]
		tile[1*epolTileCap+k] = y[j]
		tile[2*epolTileCap+k] = z[j]
		tile[3*epolTileCap+k] = s.q[j]
		tile[4*epolTileCap+k] = s.R[j]
		tile[5*epolTileCap+k] = s.invR[j]
	}
	nv := (n + 3) &^ 3
	for k := n; k < nv; k++ {
		tile[0*epolTileCap+k] = 0
		tile[1*epolTileCap+k] = 0
		tile[2*epolTileCap+k] = 0
		tile[3*epolTileCap+k] = 0
		tile[4*epolTileCap+k] = 1
		tile[5*epolTileCap+k] = 1
	}
	args := epolNearArgs{
		tile:   &tile[0],
		nents:  1,
		ranges: &s.uRange[0],
		upos:   &s.uPos[0],
		uqrg:   &s.uQRG[0],
		nv:     int64(nv),
	}
	if idxs == nil {
		for k := range near {
			out[k] = s.evalEpolNearOneVec(&args, near, k, v, vlo, vhi)
		}
		return
	}
	for _, k := range idxs {
		out[k] = s.evalEpolNearOneVec(&args, near, int(k), v, vlo, vhi)
	}
}

// evalEpolNearOneVec runs the kernel for one entry of a packed batch and
// applies the exact-diagonal self-pair correction, mirroring the per-run
// epilogue of evalEpolNearRangeVec.
func (s *EpolSolver) evalEpolNearOneVec(args *epolNearArgs, near []NodePair, k int, v, vlo, vhi int32) float64 {
	args.ents = &near[k]
	val := epolNearRunAVX2(args)
	if near[k].A == v {
		for i := vlo; i < vhi; i++ {
			num := s.q[i] * s.q[i]
			ri := s.R[i]
			val += num/ri - num/math.Sqrt(ri*ri)
		}
	}
	return val
}

func (s *EpolSolver) evalEpolNearRangeVec(near []NodePair, symmetric bool) float64 {
	var tile [6 * epolTileCap]float64
	args := epolNearArgs{
		tile:   &tile[0],
		ranges: &s.uRange[0],
		upos:   &s.uPos[0],
		uqrg:   &s.uQRG[0],
	}
	x, y, z := s.T.X, s.T.Y, s.T.Z
	var sum float64
	for len(near) > 0 {
		v := near[0].B
		run, w := epolRun(near, symmetric)
		vlo, vhi := s.T.PointRange(v)
		n := int(vhi - vlo)
		if n > epolTileCap {
			sum += w * s.evalEpolNearRun(near[:run], v)
			near = near[run:]
			continue
		}
		if n == 0 {
			near = near[run:]
			continue
		}
		for k := 0; k < n; k++ {
			j := int(vlo) + k
			tile[0*epolTileCap+k] = x[j]
			tile[1*epolTileCap+k] = y[j]
			tile[2*epolTileCap+k] = z[j]
			tile[3*epolTileCap+k] = s.q[j]
			tile[4*epolTileCap+k] = s.R[j]
			tile[5*epolTileCap+k] = s.invR[j]
		}
		nv := (n + 3) &^ 3
		for k := n; k < nv; k++ {
			tile[0*epolTileCap+k] = 0
			tile[1*epolTileCap+k] = 0
			tile[2*epolTileCap+k] = 0
			tile[3*epolTileCap+k] = 0
			tile[4*epolTileCap+k] = 1
			tile[5*epolTileCap+k] = 1
		}
		args.ents = &near[0]
		args.nents = int64(run)
		args.nv = int64(nv)
		sum += w * epolNearRunAVX2(&args)
		// Self-pair correction: the lane computed the smooth kernel at
		// d² = +0 exactly (the vectorized exp returns exactly 1.0 there),
		// i.e. qᵢ²/√(fl(Rᵢ²)). Subtract that bit pattern and add the exact
		// diagonal qᵢ²/Rᵢ the treecode defines (f_GB(i,i) = Rᵢ). A self
		// pair counts once in either kind of list, so no weight here.
		for _, p := range near[:run] {
			if p.A != v {
				continue
			}
			for i := vlo; i < vhi; i++ {
				num := s.q[i] * s.q[i]
				ri := s.R[i]
				sum += num/ri - num/math.Sqrt(ri*ri)
			}
		}
		near = near[run:]
	}
	return sum
}
