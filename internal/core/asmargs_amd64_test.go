package core

import (
	"testing"
	"unsafe"
)

// TestAsmArgOffsets pins the argument blocks of the vector kernels to the
// offsets their .s files hard-code: go vet's asmdecl checks the frame of
// an assembly function, not the fields it reads through a pointer. It
// also pins the far kernel's scratch, lane-block and lane-control sizes.
func TestAsmArgOffsets(t *testing.T) {
	var (
		en epolNearArgs
		bn bornNearArgs
		bf bornFarArgs
		ef epolFarArgs
	)
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"epolNearArgs.tile", unsafe.Offsetof(en.tile), 0},
		{"epolNearArgs.ents", unsafe.Offsetof(en.ents), 8},
		{"epolNearArgs.nents", unsafe.Offsetof(en.nents), 16},
		{"epolNearArgs.ranges", unsafe.Offsetof(en.ranges), 24},
		{"epolNearArgs.upos", unsafe.Offsetof(en.upos), 32},
		{"epolNearArgs.uqrg", unsafe.Offsetof(en.uqrg), 40},
		{"epolNearArgs.nv", unsafe.Offsetof(en.nv), 48},

		{"bornNearArgs.tile", unsafe.Offsetof(bn.tile), 0},
		{"bornNearArgs.ents", unsafe.Offsetof(bn.ents), 8},
		{"bornNearArgs.nents", unsafe.Offsetof(bn.nents), 16},
		{"bornNearArgs.ranges", unsafe.Offsetof(bn.ranges), 24},
		{"bornNearArgs.ax", unsafe.Offsetof(bn.ax), 32},
		{"bornNearArgs.ay", unsafe.Offsetof(bn.ay), 40},
		{"bornNearArgs.az", unsafe.Offsetof(bn.az), 48},
		{"bornNearArgs.sAtom", unsafe.Offsetof(bn.sAtom), 56},
		{"bornNearArgs.nv", unsafe.Offsetof(bn.nv), 64},
		{"bornNearArgs.r4", unsafe.Offsetof(bn.r4), 72},
		{"bornNearArgs.base", unsafe.Offsetof(bn.base), 80},

		{"bornFarArgs.ents", unsafe.Offsetof(bf.ents), 0},
		{"bornFarArgs.nents", unsafe.Offsetof(bf.nents), 8},
		{"bornFarArgs.cent", unsafe.Offsetof(bf.cent), 16},
		{"bornFarArgs.sNode", unsafe.Offsetof(bf.sNode), 24},
		{"bornFarArgs.cqx", unsafe.Offsetof(bf.cqx), 32},
		{"bornFarArgs.cqy", unsafe.Offsetof(bf.cqy), 40},
		{"bornFarArgs.cqz", unsafe.Offsetof(bf.cqz), 48},
		{"bornFarArgs.nx", unsafe.Offsetof(bf.nx), 56},
		{"bornFarArgs.ny", unsafe.Offsetof(bf.ny), 64},
		{"bornFarArgs.nz", unsafe.Offsetof(bf.nz), 72},
		{"bornFarArgs.mom", unsafe.Offsetof(bf.mom), 80},
		{"bornFarArgs.tr", unsafe.Offsetof(bf.tr), 128},
		{"bornFarArgs.pw", unsafe.Offsetof(bf.pw), 136},
		{"bornFarArgs.r4", unsafe.Offsetof(bf.r4), 144},

		{"epolFarArgs.us", unsafe.Offsetof(ef.us), 0},
		{"epolFarArgs.vs", unsafe.Offsetof(ef.vs), 8},
		{"epolFarArgs.ustride", unsafe.Offsetof(ef.ustride), 16},
		{"epolFarArgs.vstride", unsafe.Offsetof(ef.vstride), 24},
		{"epolFarArgs.n", unsafe.Offsetof(ef.n), 32},
		{"epolFarArgs.start", unsafe.Offsetof(ef.start), 40},
		{"epolFarArgs.blk", unsafe.Offsetof(ef.blk), 48},
		{"epolFarArgs.lanes", unsafe.Offsetof(ef.lanes), 56},
		{"epolFarArgs.cx", unsafe.Offsetof(ef.cx), 64},
		{"epolFarArgs.cy", unsafe.Offsetof(ef.cy), 72},
		{"epolFarArgs.cz", unsafe.Offsetof(ef.cz), 80},
		{"epolFarArgs.binRR", unsafe.Offsetof(ef.binRR), 88},
		{"epolFarArgs.invRR4", unsafe.Offsetof(ef.invRR4), 96},
		{"epolFarArgs.scratch", unsafe.Offsetof(ef.scratch), 104},
		{"epolFarArgs.sum", unsafe.Offsetof(ef.sum), 112},

		// epolfar_amd64.s: the scratch ends at PR+8 = 272 bytes, a lane
		// block is IMUL3Q $352, an entry shape's controls IMUL3Q $384
		// (four steps of two 32-byte controls and a lane mask), its
		// moments at 32·j and its bin ids at 320.
		{"epolFarScratch bytes", 8 * epolFarScratch, 272},
		{"farBlockFloats bytes", 8 * farBlockFloats, 352},
		{"farLanes bytes per shape", unsafe.Sizeof(farLanes) / (farSlots * farSlots), 384},
		{"farSlots bytes per vector", 8 * farSlots, 32},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, the assembly reads %d", c.name, c.got, c.want)
		}
	}
}
