//go:build amd64 && !race

// The AVX2 micro-kernel family under accTiles (gemm_amd64.go):
//
//	c[j][i] += Σ_t a[j·ars + t·ard] · b[t·ldb + i]     t = 0 … T-1, ascending
//
// for a tile of 4 or 1 rows j by 8 or 4 columns i.  The tile is loaded
// from c into YMM registers, every t adds one rounded product per element
// (VMULPD, then VADDPD into the element's own lane — never VFMADD*, which
// would skip the product's rounding, and no lane ever holds a partial sum
// over t), and the tile is stored back after the last t.  One lane is one
// output element, so each result is bit-identical to the scalar loop
// c[j][i] += a·b run over the same t.
//
// Rules every routine here keeps (go vet's asmdecl checks only the frame
// and argument offsets):
//   - NOSPLIT with a zero-size frame: leaf code, no stack use, no calls.
//   - VZEROUPPER before every RET, so the SSE code the Go compiler emits
//     pays no AVX→SSE transition penalty afterwards.
//   - Only AX BX CX DX SI DI R8–R11 and Y0–Y12 are written.  R14 (g) and
//     X15 (zero) of the Go internal ABI are neither read nor written.
//   - Every vector load and store is unaligned (VMOVUPD): callers pass
//     arbitrary slice offsets.
//   - The caller (accTiles) has checked that every address formed below
//     lies inside its operand; nothing is checked here.  T ≤ 0 stores the
//     tile back unchanged.
//
// Strides arrive in elements and are scaled to bytes on entry.

#include "textflag.h"

// LOADARGS reads the common argument list:
//	DI = c    SI = ldc·8   AX = a   R8 = ars·8   R9 = ard·8
//	BX = b    R10 = ldb·8  CX = T
#define LOADARGS \
	MOVQ c+0(FP), DI; \
	MOVQ ldc+8(FP), SI; \
	MOVQ a+16(FP), AX; \
	MOVQ ars+24(FP), R8; \
	MOVQ ard+32(FP), R9; \
	MOVQ b+40(FP), BX; \
	MOVQ ldb+48(FP), R10; \
	MOVQ t+56(FP), CX; \
	SHLQ $3, SI; \
	SHLQ $3, R8; \
	SHLQ $3, R9; \
	SHLQ $3, R10

// ROW8 adds a[row]·(Y8 | Y9) into the row's two accumulators.
#define ROW8(aaddr, acc0, acc1) \
	VBROADCASTSD aaddr, Y10; \
	VMULPD Y8, Y10, Y11; \
	VADDPD Y11, acc0, acc0; \
	VMULPD Y9, Y10, Y12; \
	VADDPD Y12, acc1, acc1

// ROW4 adds a[row]·Y8 into the row's accumulator.
#define ROW4(aaddr, acc0) \
	VBROADCASTSD aaddr, Y10; \
	VMULPD Y8, Y10, Y11; \
	VADDPD Y11, acc0, acc0

// func kern4x8(c *float64, ldc int, a *float64, ars, ard int, b *float64, ldb, t int)
TEXT ·kern4x8(SB), NOSPLIT, $0-64
	LOADARGS
	LEAQ (R8)(R8*2), R11 // 3·ars·8
	LEAQ (DI)(SI*2), DX  // row 2 of the tile
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(SI*1), Y2
	VMOVUPD 32(DI)(SI*1), Y3
	VMOVUPD (DX), Y4
	VMOVUPD 32(DX), Y5
	VMOVUPD (DX)(SI*1), Y6
	VMOVUPD 32(DX)(SI*1), Y7
	TESTQ CX, CX
	JLE store48

loop48:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	ROW8((AX), Y0, Y1)
	ROW8((AX)(R8*1), Y2, Y3)
	ROW8((AX)(R8*2), Y4, Y5)
	ROW8((AX)(R11*1), Y6, Y7)
	ADDQ R9, AX
	ADDQ R10, BX
	DECQ CX
	JNZ  loop48

store48:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(SI*1)
	VMOVUPD Y3, 32(DI)(SI*1)
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, 32(DX)
	VMOVUPD Y6, (DX)(SI*1)
	VMOVUPD Y7, 32(DX)(SI*1)
	VZEROUPPER
	RET

// func kern4x4(c *float64, ldc int, a *float64, ars, ard int, b *float64, ldb, t int)
TEXT ·kern4x4(SB), NOSPLIT, $0-64
	LOADARGS
	LEAQ (R8)(R8*2), R11
	LEAQ (DI)(SI*2), DX
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(SI*1), Y2
	VMOVUPD (DX), Y4
	VMOVUPD (DX)(SI*1), Y6
	TESTQ CX, CX
	JLE store44

loop44:
	VMOVUPD (BX), Y8
	ROW4((AX), Y0)
	ROW4((AX)(R8*1), Y2)
	ROW4((AX)(R8*2), Y4)
	ROW4((AX)(R11*1), Y6)
	ADDQ R9, AX
	ADDQ R10, BX
	DECQ CX
	JNZ  loop44

store44:
	VMOVUPD Y0, (DI)
	VMOVUPD Y2, (DI)(SI*1)
	VMOVUPD Y4, (DX)
	VMOVUPD Y6, (DX)(SI*1)
	VZEROUPPER
	RET

// func kern1x8(c *float64, ldc int, a *float64, ars, ard int, b *float64, ldb, t int)
TEXT ·kern1x8(SB), NOSPLIT, $0-64
	LOADARGS
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	TESTQ CX, CX
	JLE store18

loop18:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	ROW8((AX), Y0, Y1)
	ADDQ R9, AX
	ADDQ R10, BX
	DECQ CX
	JNZ  loop18

store18:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func kern1x4(c *float64, ldc int, a *float64, ars, ard int, b *float64, ldb, t int)
TEXT ·kern1x4(SB), NOSPLIT, $0-64
	LOADARGS
	VMOVUPD (DI), Y0
	TESTQ CX, CX
	JLE store14

loop14:
	VMOVUPD (BX), Y8
	ROW4((AX), Y0)
	ADDQ R9, AX
	ADDQ R10, BX
	DECQ CX
	JNZ  loop14

store14:
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
