package core

// amd64 dispatch for the vectorized energy far-field kernel.
// epolFarRunAVX2 evaluates one far entry at a time, its bin pairs four
// lanes per step, and repeats farPair's arithmetic operation for
// operation, so a range sums farPair's bits in farPair's order. Its
// operands come from the solver's lane blocks (farBlk) under the lane
// controls of farLanes, and its lane vectors live in a stack block, so an
// evaluation allocates nothing.

// epolFarArgs is the argument block for epolFarRunAVX2. The .s file
// hard-codes these offsets; TestAsmArgOffsets pins them.
type epolFarArgs struct {
	us      *int32   //   0: the entries' u node ids, ustride bytes apart
	vs      *int32   //   8: their v node ids, vstride bytes apart
	ustride int64    //  16
	vstride int64    //  24
	n       int64    //  32: entries; on return, the entries taken
	start   *int32   //  40: nz.start
	blk     *float64 //  48: farBlk
	lanes   *uint32  //  56: farLanes
	cx      *float64 //  64: node centres, T.CX
	cy      *float64 //  72: T.CY
	cz      *float64 //  80: T.CZ
	binRR   *float64 //  88
	invRR4  *float64 //  96
	scratch *float64 // 104: epolFarScratch floats of lane vectors
	sum     float64  // 112: the running sum, read and written
}

// epolFarScratch is the lane scratch the kernel addresses, in float64s.
const epolFarScratch = 34

// epolFarRunAVX2 adds farPair(u, v) of each entry to a.sum in entry order.
// It stops before an entry with a side of more than farSlots bins and
// sets a.n to the entries it took.
//
//go:noescape
func epolFarRunAVX2(a *epolFarArgs)

// farLanes holds the lane controls of every entry shape: for na, nb ≤
// farSlots and step s, the 24 dwords at ((na−1)·farSlots + nb−1)·4 + s (in
// units of 24) are two VPERMPS controls, the first picking each lane's u
// slot and the second its v slot, and the step's lane mask. Lane l of
// step s is the entry's bin pair p = 4s + l in farPair's order (u slot
// p / nb, v slot p % nb); a lane past the last pair repeats slot 0 and its
// mask is zero.
var farLanes = func() (t [farSlots * farSlots * 4 * 24]uint32) {
	for na := 1; na <= farSlots; na++ {
		for nb := 1; nb <= farSlots; nb++ {
			for s := range 4 {
				c := t[(((na-1)*farSlots+nb-1)*4+s)*24:][:24]
				for l := range 4 {
					a, b, mask := 0, 0, uint32(0)
					if p := 4*s + l; p < na*nb {
						a, b, mask = p/nb, p%nb, ^uint32(0)
					}
					c[2*l], c[2*l+1] = uint32(2*a), uint32(2*a+1)
					c[8+2*l], c[8+2*l+1] = uint32(2*b), uint32(2*b+1)
					c[16+2*l], c[16+2*l+1] = mask, mask
				}
			}
		}
	}
	return t
}()

// evalEpolFarVec is the vector path of evalEpolFar.
func (s *EpolSolver) evalEpolFarVec(far []NodePair) float64 {
	var scratch [epolFarScratch]float64
	a := s.farArgs(&scratch, 8, 8)
	for len(far) > 0 {
		a.us, a.vs, a.n = &far[0].A, &far[0].B, int64(len(far))
		epolFarRunAVX2(&a)
		if far = far[a.n:]; len(far) > 0 {
			p := far[0]
			a.sum += s.farPair(p.A, p.B, &s.nz, p.A, p.B)
			far = far[1:]
		}
	}
	return a.sum
}

// evalEpolFarNodesVec is the vector path of EvalEpolFarDriver.
func (s *EpolSolver) evalEpolFarNodesVec(us []int32, v int32) float64 {
	var scratch [epolFarScratch]float64
	a := s.farArgs(&scratch, 4, 0)
	for len(us) > 0 {
		a.us, a.vs, a.n = &us[0], &v, int64(len(us))
		epolFarRunAVX2(&a)
		if us = us[a.n:]; len(us) > 0 {
			a.sum += s.farPair(us[0], v, &s.nz, us[0], v)
			us = us[1:]
		}
	}
	return a.sum
}

// farArgs returns the kernel's argument block over the solver's tables.
func (s *EpolSolver) farArgs(scratch *[epolFarScratch]float64, ustride, vstride int64) epolFarArgs {
	return epolFarArgs{
		ustride: ustride,
		vstride: vstride,
		start:   &s.nz.start[0],
		blk:     &s.farBlk[0],
		lanes:   &farLanes[0],
		cx:      &s.T.CX[0],
		cy:      &s.T.CY[0],
		cz:      &s.T.CZ[0],
		binRR:   &s.binRR[0],
		invRR4:  &s.invRR4[0],
		scratch: &scratch[0],
	}
}
