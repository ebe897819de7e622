#include "textflag.h"

// Vectorized energy far-field kernel. See epolFarArgs in epolfar_amd64.go
// for the argument block and farPair in epol.go, its scalar twin, for the
// arithmetic, which this kernel repeats operation for operation: the same
// fused multiply-adds, the same separately rounded products, and
// expNegFMA's exponential (the exp2Bits table, the same reduction, the
// flush below −200). Each lane term therefore has farPair's bits, and so
// does the sum.
//
// One entry at a time. Its frame (r = c_u − c_v, d² and the rᵀSr
// weights) and each side's per-bin projections (c = r·D, s = rᵀSr and
// the traces) are formed once, over the node's lane block
// (EpolSolver.farBlk: ten moment vectors and a bin-id vector, one slot
// per occupied bin, at most four). Then its bin pairs go four per step:
// lane l of step s is pair p = 4s + l in farPair's order (u bin p / nb,
// v bin p % nb), its operands VPERMPS of the slot vectors under the
// step's lane controls (·farLanes, by na, nb and s). The lanes that hold
// pairs (the step's lane mask) are added in lane order, the entry's sum
// to the running sum. An entry with a side of more than four bins ends
// the call, which reports how many entries it took; the caller evaluates
// that one.
//
// Register plan:
//   AX args · BX/SI u/v id cursors · R15 entries left · R8 lane blocks ·
//   R9 nz.start · R11 scratch · R12 exp2Bits · R13 invRR4 · R14 binRR ·
//   CX/DX u/v lane blocks · DI lane controls · R10 temp · Y14/Y15 u/v
//   lane controls in a step · Y4..Y12 the frame while the slots are
//   formed · Y9..Y13 1/h, 0.75·hp², hp/2, e·c4/8 and √h/h while a step
//   forms its pair terms · the rest pipeline temps. The per-entry vectors
//   and the entry's sum live in the scratch block at these offsets:

#define D2 0    // d², the same in every lane
#define ND2 32  // −d²
#define US 64   // u slots: s_a = rᵀS_a r
#define U1 96   //   2c_a + tr S_a
#define CA4 128 //   4c_a
#define VS 160  // v slots: s_b
#define VC 192  //   c_b
#define V1 224  //   tr S_b − 2c_b
#define EV 256  // the entry's sum
#define PR 264  // the entry's pairs not yet added

DATA farInvL4<>+0(SB)/8, $0x40671547652B82FE // 128/ln2
DATA farInvL4<>+8(SB)/8, $0x40671547652B82FE
DATA farInvL4<>+16(SB)/8, $0x40671547652B82FE
DATA farInvL4<>+24(SB)/8, $0x40671547652B82FE
GLOBL farInvL4<>(SB), RODATA, $32

DATA farL4<>+0(SB)/8, $0x3F762E42FEFA39EF // ln2/128
DATA farL4<>+8(SB)/8, $0x3F762E42FEFA39EF
DATA farL4<>+16(SB)/8, $0x3F762E42FEFA39EF
DATA farL4<>+24(SB)/8, $0x3F762E42FEFA39EF
GLOBL farL4<>(SB), RODATA, $32

DATA farHalf4<>+0(SB)/8, $0x3FE0000000000000 // 0.5
DATA farHalf4<>+8(SB)/8, $0x3FE0000000000000
DATA farHalf4<>+16(SB)/8, $0x3FE0000000000000
DATA farHalf4<>+24(SB)/8, $0x3FE0000000000000
GLOBL farHalf4<>(SB), RODATA, $32

DATA farC6_4<>+0(SB)/8, $0x3FC5555555555555 // 1/6
DATA farC6_4<>+8(SB)/8, $0x3FC5555555555555
DATA farC6_4<>+16(SB)/8, $0x3FC5555555555555
DATA farC6_4<>+24(SB)/8, $0x3FC5555555555555
GLOBL farC6_4<>(SB), RODATA, $32

DATA farC24_4<>+0(SB)/8, $0x3FA5555555555555 // 1/24
DATA farC24_4<>+8(SB)/8, $0x3FA5555555555555
DATA farC24_4<>+16(SB)/8, $0x3FA5555555555555
DATA farC24_4<>+24(SB)/8, $0x3FA5555555555555
GLOBL farC24_4<>(SB), RODATA, $32

DATA farClamp4<>+0(SB)/8, $0xC085E00000000000 // -700.0
DATA farClamp4<>+8(SB)/8, $0xC085E00000000000
DATA farClamp4<>+16(SB)/8, $0xC085E00000000000
DATA farClamp4<>+24(SB)/8, $0xC085E00000000000
GLOBL farClamp4<>(SB), RODATA, $32

DATA farCut4<>+0(SB)/8, $0xC069000000000000 // -200.0, expNegCut
DATA farCut4<>+8(SB)/8, $0xC069000000000000
DATA farCut4<>+16(SB)/8, $0xC069000000000000
DATA farCut4<>+24(SB)/8, $0xC069000000000000
GLOBL farCut4<>(SB), RODATA, $32

DATA farIdx4<>+0(SB)/8, $127 // table index mask
DATA farIdx4<>+8(SB)/8, $127
DATA farIdx4<>+16(SB)/8, $127
DATA farIdx4<>+24(SB)/8, $127
GLOBL farIdx4<>(SB), RODATA, $32

DATA farSign4<>+0(SB)/8, $0x8000000000000000 // sign bit
DATA farSign4<>+8(SB)/8, $0x8000000000000000
DATA farSign4<>+16(SB)/8, $0x8000000000000000
DATA farSign4<>+24(SB)/8, $0x8000000000000000
GLOBL farSign4<>(SB), RODATA, $32

DATA farOne4<>+0(SB)/8, $0x3FF0000000000000 // 1.0
DATA farOne4<>+8(SB)/8, $0x3FF0000000000000
DATA farOne4<>+16(SB)/8, $0x3FF0000000000000
DATA farOne4<>+24(SB)/8, $0x3FF0000000000000
GLOBL farOne4<>(SB), RODATA, $32

DATA farQuarter4<>+0(SB)/8, $0x3FD0000000000000 // 0.25
DATA farQuarter4<>+8(SB)/8, $0x3FD0000000000000
DATA farQuarter4<>+16(SB)/8, $0x3FD0000000000000
DATA farQuarter4<>+24(SB)/8, $0x3FD0000000000000
GLOBL farQuarter4<>(SB), RODATA, $32

DATA farThreeQ4<>+0(SB)/8, $0x3FE8000000000000 // 0.75
DATA farThreeQ4<>+8(SB)/8, $0x3FE8000000000000
DATA farThreeQ4<>+16(SB)/8, $0x3FE8000000000000
DATA farThreeQ4<>+24(SB)/8, $0x3FE8000000000000
GLOBL farThreeQ4<>(SB), RODATA, $32

DATA farEighth4<>+0(SB)/8, $0x3FC0000000000000 // 0.125
DATA farEighth4<>+8(SB)/8, $0x3FC0000000000000
DATA farEighth4<>+16(SB)/8, $0x3FC0000000000000
DATA farEighth4<>+24(SB)/8, $0x3FC0000000000000
GLOBL farEighth4<>(SB), RODATA, $32

DATA farTwo4<>+0(SB)/8, $0x4000000000000000 // 2.0
DATA farTwo4<>+8(SB)/8, $0x4000000000000000
DATA farTwo4<>+16(SB)/8, $0x4000000000000000
DATA farTwo4<>+24(SB)/8, $0x4000000000000000
GLOBL farTwo4<>(SB), RODATA, $32

DATA farMinusTwo4<>+0(SB)/8, $0xC000000000000000 // -2.0
DATA farMinusTwo4<>+8(SB)/8, $0xC000000000000000
DATA farMinusTwo4<>+16(SB)/8, $0xC000000000000000
DATA farMinusTwo4<>+24(SB)/8, $0xC000000000000000
GLOBL farMinusTwo4<>(SB), RODATA, $32

// func epolFarRunAVX2(a *epolFarArgs)
TEXT ·epolFarRunAVX2(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	MOVQ 0(AX), BX             // u id cursor
	MOVQ 8(AX), SI             // v id cursor
	MOVQ 32(AX), R15           // entries left
	MOVQ 48(AX), R8            // lane blocks
	MOVQ 40(AX), R9            // nz.start
	MOVQ 104(AX), R11          // scratch
	LEAQ ·exp2Bits(SB), R12
	MOVQ 96(AX), R13           // invRR4
	MOVQ 88(AX), R14           // binRR

entry:
	CMPQ R15, $0
	JLE  done
	MOVLQSX (BX), CX           // u
	MOVLQSX (SI), DX           // v
	MOVLQSX 4(R9)(CX*4), DI
	SUBL (R9)(CX*4), DI        // na
	MOVLQSX 4(R9)(DX*4), R10
	SUBL (R9)(DX*4), R10       // nb
	CMPQ DI, $4
	JGT  done                  // a side wider than a lane block
	CMPQ R10, $4
	JGT  done
	MOVQ $0, EV(R11)           // the entry's sum
	MOVQ R10, PR(R11)
	LEAQ -5(R10)(DI*4), R10    // (na−1)·4 + (nb−1)
	IMULQ PR(R11), DI
	MOVQ DI, PR(R11)           // pairs
	IMUL3Q $384, R10, DI
	ADDQ 56(AX), DI            // the entry's lane controls

	// The frame, the same in every lane: r = c_u − c_v, d² and the rᵀSr
	// weights.
	MOVQ 64(AX), R10
	VBROADCASTSD (R10)(CX*8), Y4
	VBROADCASTSD (R10)(DX*8), Y3
	VSUBPD Y3, Y4, Y4          // rx
	MOVQ 72(AX), R10
	VBROADCASTSD (R10)(CX*8), Y5
	VBROADCASTSD (R10)(DX*8), Y3
	VSUBPD Y3, Y5, Y5          // ry
	MOVQ 80(AX), R10
	VBROADCASTSD (R10)(CX*8), Y6
	VBROADCASTSD (R10)(DX*8), Y3
	VSUBPD Y3, Y6, Y6          // rz
	VMULPD Y4, Y4, Y7          // wxx
	VMULPD Y5, Y5, Y8          // wyy
	VMULPD Y6, Y6, Y9          // wzz
	VMOVAPD Y7, Y13
	VFMADD231PD Y5, Y5, Y13
	VFMADD231PD Y6, Y6, Y13    // d²
	VMOVUPD Y13, D2(R11)
	VXORPD farSign4<>(SB), Y13, Y13
	VMOVUPD Y13, ND2(R11)
	VADDPD Y4, Y4, Y13
	VMULPD Y5, Y13, Y10        // wxy = 2rx·ry
	VMULPD Y6, Y13, Y11        // wxz = 2rx·rz
	VADDPD Y5, Y5, Y13
	VMULPD Y6, Y13, Y12        // wyz = 2ry·rz
	IMUL3Q $352, CX, CX
	ADDQ R8, CX                // u lane block
	IMUL3Q $352, DX, DX
	ADDQ R8, DX                // v lane block

	// The u slots' projections.
	VMULPD 32(CX), Y4, Y13
	VFMADD231PD 64(CX), Y5, Y13
	VFMADD231PD 96(CX), Y6, Y13 // c_a = r·D_a
	VMULPD 128(CX), Y7, Y14
	VFMADD231PD 160(CX), Y8, Y14
	VFMADD231PD 192(CX), Y9, Y14
	VFMADD231PD 224(CX), Y10, Y14
	VFMADD231PD 256(CX), Y11, Y14
	VFMADD231PD 288(CX), Y12, Y14
	VMOVUPD Y14, US(R11)
	VMOVUPD 128(CX), Y15
	VADDPD 160(CX), Y15, Y15
	VADDPD 192(CX), Y15, Y15   // tr S_a
	VFMADD231PD farTwo4<>(SB), Y13, Y15
	VMOVUPD Y15, U1(R11)
	VADDPD Y13, Y13, Y13
	VADDPD Y13, Y13, Y13
	VMOVUPD Y13, CA4(R11)

	// The v slots' projections.
	VMULPD 32(DX), Y4, Y13
	VFMADD231PD 64(DX), Y5, Y13
	VFMADD231PD 96(DX), Y6, Y13 // c_b
	VMOVUPD Y13, VC(R11)
	VMULPD 128(DX), Y7, Y14
	VFMADD231PD 160(DX), Y8, Y14
	VFMADD231PD 192(DX), Y9, Y14
	VFMADD231PD 224(DX), Y10, Y14
	VFMADD231PD 256(DX), Y11, Y14
	VFMADD231PD 288(DX), Y12, Y14
	VMOVUPD Y14, VS(R11)
	VMOVUPD 128(DX), Y15
	VADDPD 160(DX), Y15, Y15
	VADDPD 192(DX), Y15, Y15   // tr S_b
	VFNMADD231PD farTwo4<>(SB), Y13, Y15
	VMOVUPD Y15, V1(R11)
	VXORPD X0, X0, X0          // the entry's sum, +0 for no pairs
	CMPQ PR(R11), $0
	JLE  entrydone

step:
	// The lanes' bin ids first: t = bin a + bin b is all that e, h, its
	// root and reciprocal and hp need, so that chain starts at once.
	VMOVDQU (DI), Y14          // u lane control
	VMOVDQU 32(DI), Y15        // v lane control
	VPERMPS 320(CX), Y14, Y0
	VPERMPS 320(DX), Y15, Y1
	VPADDQ Y0, Y1, Y1          // t
	VPCMPEQD Y2, Y2, Y2
	VGATHERQPD Y2, (R13)(Y1*8), Y4 // c4 = invRR4[t]
	VPCMPEQD Y2, Y2, Y2
	VGATHERQPD Y2, (R14)(Y1*8), Y6 // binRR[t]
	VMULPD ND2(R11), Y4, Y7    // x = −d²·c4

	// e = expNegFMA(x). The clamp keeps the bit assembly sane below the
	// flush, which the mask then applies; x ≥ −200 is unchanged by it.
	VMAXPD farClamp4<>(SB), Y7, Y7
	VMULPD farInvL4<>(SB), Y7, Y8
	VSUBPD farHalf4<>(SB), Y8, Y8
	VCVTTPD2DQY Y8, X8         // ki
	VCVTDQ2PD X8, Y9
	VMOVAPD Y7, Y11
	VFNMADD231PD farL4<>(SB), Y9, Y11 // r = x − ki·(ln2/128)
	VPMOVSXDQ X8, Y8
	VPAND farIdx4<>(SB), Y8, Y10 // j = ki & 127
	VPSUBQ Y10, Y8, Y8
	VPSLLQ $45, Y8, Y8         // (ki &^ 127) << 45
	VPCMPEQD Y2, Y2, Y2
	VGATHERQPD Y2, (R12)(Y10*8), Y12
	VPADDQ Y8, Y12, Y12        // sc
	VMULPD Y11, Y11, Y10       // r²
	VMOVUPD farC24_4<>(SB), Y13
	VFMADD213PD farC6_4<>(SB), Y11, Y13
	VFMADD213PD farHalf4<>(SB), Y11, Y13
	VFMADD213PD Y11, Y10, Y13  // p = r + r²·(½ + r·(⅙ + r/24))
	VFMADD213PD Y12, Y12, Y13  // sc + sc·p
	VCMPPD $13, farCut4<>(SB), Y7, Y8 // x ≥ −200
	VANDPD Y8, Y13, Y13        // e

	// What the pair terms need of e and h stays in Y9..Y13.
	VMULPD farEighth4<>(SB), Y4, Y4
	VMULPD Y13, Y4, Y12        // e·c4/8
	VFMADD213PD D2(R11), Y13, Y6 // h = d² + RR·e
	VMOVUPD farOne4<>(SB), Y9
	VFNMADD231PD farQuarter4<>(SB), Y13, Y9 // hp = 1 − e/4
	VMULPD farHalf4<>(SB), Y9, Y11 // hp/2
	VMULPD Y9, Y9, Y10
	VMULPD farThreeQ4<>(SB), Y10, Y10 // 0.75·hp²
	VMOVUPD farOne4<>(SB), Y8
	VDIVPD Y6, Y8, Y9          // ih = 1/h
	VSQRTPD Y6, Y6
	VMULPD Y9, Y6, Y13         // g0 = √h·ih

	// The pair terms.
	VPERMPS (CX), Y14, Y0      // q_a
	VPERMPS (DX), Y15, Y1      // q_b
	VPERMPS 32(CX), Y14, Y2
	VPERMPS 32(DX), Y15, Y3
	VMULPD Y3, Y2, Y2
	VPERMPS 64(CX), Y14, Y3
	VPERMPS 64(DX), Y15, Y4
	VFMADD231PD Y4, Y3, Y2
	VPERMPS 96(CX), Y14, Y3
	VPERMPS 96(DX), Y15, Y4
	VFMADD231PD Y4, Y3, Y2     // D_a·D_b
	VMULPD farMinusTwo4<>(SB), Y2, Y2
	VPERMPS U1(R11), Y14, Y3
	VFMADD231PD Y3, Y1, Y2
	VPERMPS V1(R11), Y15, Y3
	VFMADD231PD Y3, Y0, Y2     // x1
	VPERMPS US(R11), Y14, Y3
	VMULPD Y3, Y1, Y3
	VPERMPS VS(R11), Y15, Y4
	VFMADD231PD Y4, Y0, Y3
	VADDPD Y3, Y3, Y3
	VPERMPS CA4(R11), Y14, Y4
	VPERMPS VC(R11), Y15, Y5
	VFNMADD231PD Y5, Y4, Y3    // x2
	VMULPD Y1, Y0, Y0          // q_a·q_b
	VMULPD Y10, Y3, Y4         // p
	VMULPD Y12, Y3, Y5
	VFMADD231PD Y11, Y2, Y5    // q
	VFMSUB213PD Y5, Y9, Y4     // ih·p − q
	VFMADD213PD Y0, Y9, Y4     // q_a·q_b + ih·(ih·p − q)
	VMULPD Y13, Y4, Y6         // the lane terms

	// Add the lanes to the entry's sum in lane order, a lane past the
	// last pair as +0 (the step's lane mask): the sum starts at +0, so it
	// is never −0, and adding +0 leaves its bits as they are.
	VANDPD 64(DI), Y6, Y6
	VMOVSD EV(R11), X0
	VADDSD X6, X0, X0
	VPERMILPD $1, X6, X1
	VADDSD X1, X0, X0
	VEXTRACTF128 $1, Y6, X2
	VADDSD X2, X0, X0
	VPERMILPD $1, X2, X3
	VADDSD X3, X0, X0
	ADDQ $96, DI
	SUBQ $4, PR(R11)
	CMPQ PR(R11), $0
	JLE  entrydone
	VMOVSD X0, EV(R11)
	JMP  step

entrydone:
	VADDSD 112(AX), X0, X0
	VMOVSD X0, 112(AX)         // running sum += the entry's
	ADDQ 16(AX), BX
	ADDQ 24(AX), SI
	DECQ R15
	JMP  entry

done:
	MOVQ 32(AX), CX
	SUBQ R15, CX
	MOVQ CX, 32(AX)            // entries taken
	VZEROUPPER
	RET
