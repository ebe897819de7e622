package core

// amd64 dispatch for the vectorized Born far-field kernel. Far entries
// arrive in runs sharing a T_Q node; within a run every entry names a
// distinct T_A node, so four entries can be evaluated in SIMD lanes and
// scattered into sNode without accumulation conflicts.

// bornFarArgs is the argument block for bornFarRunAVX2. Field offsets
// are hard-coded in bornfar_amd64.s — keep the layouts in sync.
type bornFarArgs struct {
	ents          *NodePair  //   0: run entries, count a multiple of 4
	nents         int64      //   8
	cent          *float64   //  16: aCent — packed (x,y,z,pad) T_A node centers
	sNode         *float64   //  24: far accumulator, 4 floats per T_A node
	cqx, cqy, cqz float64    //  32,40,48: the run's T_Q node center
	nx, ny, nz    float64    //  56,64,72: its ñ_Q
	mom           [6]float64 //  80..120: its first moment, qMom's packing
	tr            float64    // 128: tr M_Q = mom[0] + mom[1] + mom[2]
	pw            float64    // 136: the power p
	r4            int64      // 144: nonzero → 1/d⁴ integrand, else 1/d⁶
}

// bornFarRunAVX2 evaluates 4 far entries per iteration: transposed
// 32-byte center loads, the far term and its gradient (farTerm's
// operations in farTerm's order, one packed divide), a 4×4 transpose and
// one 32-byte add per entry into sNode.
//
//go:noescape
func bornFarRunAVX2(a *bornFarArgs)

// evalBornFarRangeVec is EvalBornFarRange's amd64 vector path. The
// q-side values are hoisted per run; the sub-multiple-of-4 run tail stays
// scalar.
func (s *BornSolver) evalBornFarRangeVec(far []NodePair, sNode []float64) {
	args := bornFarArgs{cent: &s.aCent[0], sNode: &sNode[0], pw: s.pw}
	if s.r4 {
		args.r4 = 1
	}
	for len(far) > 0 {
		q := far[0].B
		run := 1
		for run < len(far) && far[run].B == q {
			run++
		}
		if n4 := run &^ 3; n4 > 0 {
			args.cqx, args.cqy, args.cqz = s.TQ.CX[q], s.TQ.CY[q], s.TQ.CZ[q]
			args.nx, args.ny, args.nz = s.wnNX[q], s.wnNY[q], s.wnNZ[q]
			copy(args.mom[:], s.qMom[6*q:6*q+6])
			args.tr = args.mom[0] + args.mom[1] + args.mom[2]
			args.ents = &far[0]
			args.nents = int64(n4)
			bornFarRunAVX2(&args)
		}
		for _, p := range far[run&^3 : run] {
			s.AddBornFarTerm(p.A, q, sNode)
		}
		far = far[run:]
	}
}
