#include "textflag.h"

// Vectorized Born near-field kernel. See bornNearArgs in
// bornnear_amd64.go for the argument block layout and evalBornNearRangeVec
// for the q-tile packing contract: six rows of bornTileCap (64) float64
// at byte offsets 0/512/1024/1536/2048/2560 (qx qy qz wx wy wz), padded
// with zero weights to a multiple of 4 elements.
//
// Per run entry the kernel walks the entry's atom rows (point range
// loaded from the packed aRange table) and sweeps the tile 4 pairs at a
// time: d = q − p, d² by FMA, the surface dot w·d by FMA against the
// tile's weight rows, then t = (w·d)/d²ᵏ and a bitwise AND with the
// d² ≥ 1e-12 compare mask — coincident pairs and zero-padding lanes both
// land on ±0 contributions exactly like the scalar guard. Row sums
// horizontally reduce into sAtom[row − base]; the base is folded into the
// accumulator pointer once, on entry.
//
// Register plan (both exponent variants):
//   DX tile · BX/R15 entry cursor/end · R14 aRange · R8..R10 atom SoA
//   R11 sAtom · R12 tile bytes · CX/R13 row cursor/end · SI tile offset
//   Y0..Y2 row position splats · Y3 row accumulator · Y4..Y8 pipeline
//   Y15 1e-12 splat

DATA bornEps<>+0(SB)/8, $0x3D719799812DEA11 // 1e-12
GLOBL bornEps<>(SB), RODATA, $8

// func bornNearRunAVX2(a *bornNearArgs)
TEXT ·bornNearRunAVX2(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	MOVQ 0(AX), DX             // tile base
	MOVQ 8(AX), BX             // entries cursor
	MOVQ 16(AX), R15
	SHLQ $3, R15
	ADDQ BX, R15               // entries end
	MOVQ 24(AX), R14           // packed point ranges
	MOVQ 32(AX), R8            // atom x
	MOVQ 40(AX), R9            // atom y
	MOVQ 48(AX), R10           // atom z
	MOVQ 56(AX), R11           // sAtom
	MOVQ 80(AX), SI
	SHLQ $3, SI
	SUBQ SI, R11               // rebased: row i accumulates at sAtom[i-base]
	MOVQ 64(AX), R12
	SHLQ $3, R12               // tile length in bytes
	MOVQ 72(AX), AX            // exponent selector
	VBROADCASTSD bornEps<>+0(SB), Y15
	CMPQ AX, $0
	JNE  r4entries

	// 1/d⁶ variant.
r6entries:
	CMPQ BX, R15
	JGE  vdone
	MOVLQSX 0(BX), AX          // entry's T_A node
	ADDQ $8, BX
	MOVQ (R14)(AX*8), CX
	MOVQ CX, R13
	SHRQ $32, R13              // row end
	MOVL CX, CX                // row cursor (zero-extends)

r6rows:
	CMPQ CX, R13
	JGE  r6entries
	VBROADCASTSD (R8)(CX*8), Y0
	VBROADCASTSD (R9)(CX*8), Y1
	VBROADCASTSD (R10)(CX*8), Y2
	VXORPD Y3, Y3, Y3
	XORQ SI, SI

r6j:
	VMOVUPD (DX)(SI*1), Y4
	VMOVUPD 512(DX)(SI*1), Y5
	VMOVUPD 1024(DX)(SI*1), Y6
	VSUBPD Y0, Y4, Y4          // dx = qx − px
	VSUBPD Y1, Y5, Y5
	VSUBPD Y2, Y6, Y6
	VMULPD Y4, Y4, Y7
	VFMADD231PD Y5, Y5, Y7
	VFMADD231PD Y6, Y6, Y7     // d²
	VMULPD 1536(DX)(SI*1), Y4, Y4
	VFMADD231PD 2048(DX)(SI*1), Y5, Y4
	VFMADD231PD 2560(DX)(SI*1), Y6, Y4 // w·d
	VMULPD Y7, Y7, Y8
	VMULPD Y7, Y8, Y8          // d⁶
	VDIVPD Y8, Y4, Y4          // t = (w·d)/d⁶
	VCMPPD $13, Y15, Y7, Y7    // d² ≥ 1e-12 (GE_OS)
	VANDPD Y7, Y4, Y4
	VADDPD Y4, Y3, Y3
	ADDQ $32, SI
	CMPQ SI, R12
	JL   r6j

	VEXTRACTF128 $1, Y3, X4
	VADDPD X4, X3, X3
	VSHUFPD $1, X3, X3, X4
	VADDSD X4, X3, X3
	VADDSD (R11)(CX*8), X3, X3
	VMOVSD X3, (R11)(CX*8)
	INCQ CX
	JMP  r6rows

	// 1/d⁴ (Coulomb-field) variant: identical but for the denominator.
r4entries:
	CMPQ BX, R15
	JGE  vdone
	MOVLQSX 0(BX), AX
	ADDQ $8, BX
	MOVQ (R14)(AX*8), CX
	MOVQ CX, R13
	SHRQ $32, R13
	MOVL CX, CX

r4rows:
	CMPQ CX, R13
	JGE  r4entries
	VBROADCASTSD (R8)(CX*8), Y0
	VBROADCASTSD (R9)(CX*8), Y1
	VBROADCASTSD (R10)(CX*8), Y2
	VXORPD Y3, Y3, Y3
	XORQ SI, SI

r4j:
	VMOVUPD (DX)(SI*1), Y4
	VMOVUPD 512(DX)(SI*1), Y5
	VMOVUPD 1024(DX)(SI*1), Y6
	VSUBPD Y0, Y4, Y4
	VSUBPD Y1, Y5, Y5
	VSUBPD Y2, Y6, Y6
	VMULPD Y4, Y4, Y7
	VFMADD231PD Y5, Y5, Y7
	VFMADD231PD Y6, Y6, Y7
	VMULPD 1536(DX)(SI*1), Y4, Y4
	VFMADD231PD 2048(DX)(SI*1), Y5, Y4
	VFMADD231PD 2560(DX)(SI*1), Y6, Y4
	VMULPD Y7, Y7, Y8          // d⁴
	VDIVPD Y8, Y4, Y4
	VCMPPD $13, Y15, Y7, Y7
	VANDPD Y7, Y4, Y4
	VADDPD Y4, Y3, Y3
	ADDQ $32, SI
	CMPQ SI, R12
	JL   r4j

	VEXTRACTF128 $1, Y3, X4
	VADDPD X4, X3, X3
	VSHUFPD $1, X3, X3, X4
	VADDSD X4, X3, X3
	VADDSD (R11)(CX*8), X3, X3
	VMOVSD X3, (R11)(CX*8)
	INCQ CX
	JMP  r4rows

vdone:
	VZEROUPPER
	RET
