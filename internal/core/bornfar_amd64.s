#include "textflag.h"

// Vectorized Born far-field kernel. See bornFarArgs in bornfar_amd64.go
// for the argument block layout and farTerm in born.go for the arithmetic.
// Four entries per iteration: each T_A node center is one 32-byte load
// from the packed aCent array, a 4×3 unpack/permute transpose turns them
// into X/Y/Z lane vectors, and the far term and its gradient are formed
// with one packed divide. A 4×4 transpose turns the (v, gx, gy, gz) lane
// vectors back into one 32-byte row per entry, added into sNode — within
// a run all A nodes are distinct, so rows never collide. A node's row in
// sNode and its center in aCent are both 32 bytes, so one offset serves
// both.
//
// Register plan:
//   AX args · BX/R15 entry cursor/end · R14 aCent · R11 sNode · R12 r4
//   flag · CX,SI,DI,R13 lane node offsets · Y12..Y14 q-center splats ·
//   Y9..Y11 ñ_Q splats · Y15 1.0 · Y0..Y8 transpose/pipeline temps (the
//   moment, tr and p are splatted from the args block where they are used)

DATA bornOne<>+0(SB)/8, $0x3FF0000000000000 // 1.0
GLOBL bornOne<>(SB), RODATA, $8

// func bornFarRunAVX2(a *bornFarArgs)
TEXT ·bornFarRunAVX2(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	MOVQ 0(AX), BX             // entries cursor
	MOVQ 8(AX), R15
	SHLQ $3, R15
	ADDQ BX, R15               // entries end
	MOVQ 16(AX), R14           // packed centers
	MOVQ 24(AX), R11           // sNode
	MOVQ 144(AX), R12          // exponent selector
	VBROADCASTSD 32(AX), Y12
	VBROADCASTSD 40(AX), Y13
	VBROADCASTSD 48(AX), Y14
	VBROADCASTSD 56(AX), Y9
	VBROADCASTSD 64(AX), Y10
	VBROADCASTSD 72(AX), Y11
	VBROADCASTSD bornOne<>+0(SB), Y15

floop:
	CMPQ BX, R15
	JGE  fdone
	MOVLQSX 0(BX), CX          // lane node ids → byte offsets (×32)
	MOVLQSX 8(BX), SI
	MOVLQSX 16(BX), DI
	MOVLQSX 24(BX), R13
	SHLQ $5, CX
	SHLQ $5, SI
	SHLQ $5, DI
	SHLQ $5, R13
	VMOVUPD (R14)(CX*1), Y0    // (x0 y0 z0 _)
	VMOVUPD (R14)(SI*1), Y1
	VMOVUPD (R14)(DI*1), Y2
	VMOVUPD (R14)(R13*1), Y3
	VUNPCKLPD Y1, Y0, Y4       // (x0 x1 z0 z1)
	VUNPCKHPD Y1, Y0, Y5       // (y0 y1 _ _)
	VUNPCKLPD Y3, Y2, Y6       // (x2 x3 z2 z3)
	VUNPCKHPD Y3, Y2, Y7       // (y2 y3 _ _)
	VPERM2F128 $0x20, Y6, Y4, Y0 // X lanes
	VPERM2F128 $0x31, Y6, Y4, Y2 // Z lanes
	VPERM2F128 $0x20, Y7, Y5, Y1 // Y lanes
	VSUBPD Y0, Y12, Y0         // d = c_Q − c_A
	VSUBPD Y1, Y13, Y1
	VSUBPD Y2, Y14, Y2
	// Plain mul/add in farTerm's evaluation order — no FMA contraction —
	// so every lane is bitwise identical to the Go form (the far terms
	// cancel; reassociation would breach the oracle pins).
	VMULPD Y0, Y0, Y3
	VMULPD Y1, Y1, Y4
	VADDPD Y4, Y3, Y3
	VMULPD Y2, Y2, Y4
	VADDPD Y4, Y3, Y3          // d²
	VDIVPD Y3, Y15, Y3         // i2 = 1/d²
	VMULPD Y3, Y3, Y4          // k = i2²
	CMPQ R12, $0
	JNE  fk4
	VMULPD Y3, Y4, Y4          // k = i2³ for 1/d⁶

fk4:
	VMULPD Y9, Y0, Y5          // nd = ñ·d
	VMULPD Y10, Y1, Y6
	VADDPD Y6, Y5, Y5
	VMULPD Y11, Y2, Y6
	VADDPD Y6, Y5, Y5
	VBROADCASTSD 80(AX), Y6    // yᵀMy = dx(Mxx dx + 2Mxy dy + 2Mxz dz)
	VMULPD Y0, Y6, Y6
	VBROADCASTSD 104(AX), Y7
	VMULPD Y1, Y7, Y7
	VADDPD Y7, Y6, Y6
	VBROADCASTSD 112(AX), Y7
	VMULPD Y2, Y7, Y7
	VADDPD Y7, Y6, Y6
	VMULPD Y6, Y0, Y6
	VBROADCASTSD 88(AX), Y7    //   + dy(Myy dy + 2Myz dz)
	VMULPD Y1, Y7, Y7
	VBROADCASTSD 120(AX), Y8
	VMULPD Y2, Y8, Y8
	VADDPD Y8, Y7, Y7
	VMULPD Y7, Y1, Y7
	VADDPD Y7, Y6, Y6
	VBROADCASTSD 96(AX), Y7    //   + dz(Mzz dz)
	VMULPD Y2, Y7, Y7
	VMULPD Y7, Y2, Y7
	VADDPD Y7, Y6, Y6
	VBROADCASTSD 136(AX), Y7
	VMULPD Y3, Y7, Y3          // pi2 = p·i2
	VMULPD Y6, Y3, Y6          // pi2·yᵀMy
	VBROADCASTSD 128(AX), Y7
	VADDPD Y7, Y5, Y7          // nd + tr
	VSUBPD Y6, Y7, Y7
	VMULPD Y4, Y7, Y7          // v
	VMULPD Y5, Y3, Y3          // c = pi2·nd
	VMULPD Y3, Y0, Y0
	VSUBPD Y9, Y0, Y0
	VMULPD Y4, Y0, Y0          // gx = (c·dx − nx)·k
	VMULPD Y3, Y1, Y1
	VSUBPD Y10, Y1, Y1
	VMULPD Y4, Y1, Y1          // gy
	VMULPD Y3, Y2, Y2
	VSUBPD Y11, Y2, Y2
	VMULPD Y4, Y2, Y2          // gz
	VUNPCKLPD Y0, Y7, Y3       // (v0 gx0 v2 gx2)
	VUNPCKHPD Y0, Y7, Y5       // (v1 gx1 v3 gx3)
	VUNPCKLPD Y2, Y1, Y6       // (gy0 gz0 gy2 gz2)
	VUNPCKHPD Y2, Y1, Y8       // (gy1 gz1 gy3 gz3)
	VPERM2F128 $0x20, Y6, Y3, Y0 // entry 0's row
	VPERM2F128 $0x31, Y6, Y3, Y2 // entry 2's
	VPERM2F128 $0x20, Y8, Y5, Y1 // entry 1's
	VPERM2F128 $0x31, Y8, Y5, Y3 // entry 3's
	VADDPD (R11)(CX*1), Y0, Y0
	VMOVUPD Y0, (R11)(CX*1)
	VADDPD (R11)(SI*1), Y1, Y1
	VMOVUPD Y1, (R11)(SI*1)
	VADDPD (R11)(DI*1), Y2, Y2
	VMOVUPD Y2, (R11)(DI*1)
	VADDPD (R11)(R13*1), Y3, Y3
	VMOVUPD Y3, (R11)(R13*1)
	ADDQ $32, BX
	JMP  floop

fdone:
	VZEROUPPER
	RET
