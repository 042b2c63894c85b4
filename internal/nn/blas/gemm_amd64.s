//go:build amd64 && !race

// The SIMD micro-kernel family under accTiles (gemm_amd64.go):
//
//	c[j][i] += Σ_t a[j·ars + t·ard] · b[t·ldb + i]     t = 0 … T-1, ascending
//
// for a tile of 4 or 1 rows j by 16, 8 or 4 columns i.  accTiles cuts a
// block's columns into a cascade: 16-wide ZMM tiles (kern4x16, kern1x16)
// where the host has AVX-512, then 8-wide and one 4-wide YMM tile, then
// a Go loop for the last < 4.  The tile is loaded from c into vector
// registers, every t adds one rounded product per element (VMULPD, then
// VADDPD into the element's own lane — never VFMADD*, which would skip
// the product's rounding, and no lane ever holds a partial sum over t),
// and the tile is stored back after the last t.  One lane is one output
// element, so each result is bit-identical to the scalar loop
// c[j][i] += a·b run over the same t, at either width.
//
// Rules every routine here keeps (go vet's asmdecl checks only the frame
// and argument offsets):
//   - NOSPLIT with a zero-size frame: leaf code, no stack use, no calls.
//   - VZEROUPPER before every tile's RET: it clears the upper halves of
//     ZMM0–15 (bits 128 and up), so the SSE code the Go compiler emits
//     pays no AVX→SSE transition penalty afterwards.  cpuid and xgetbv0
//     touch no vector register and run before AVX is known to exist, so
//     they have none.
//   - Only AX BX CX DX SI DI R8–R11 and Y0–Y12 / Z0–Z12 are written:
//     accumulators in 0–7, b in 8–9, the broadcast in 10, products in
//     11–12.  ZMM16–31 and the opmask registers are never touched.  R14
//     (g) and X15 (zero) of the Go internal ABI are neither read nor
//     written.
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

// MULADD adds one rounded product into an accumulator: p = bc·bv, then
// acc += p, each rounded on its own.
#define MULADD(bc, bv, p, acc) \
	VMULPD bv, bc, p; \
	VADDPD p, acc, acc

// ROW2 adds a[row]·(b0 | b1) into the row's two accumulators, the
// broadcast going through bc and the products through p0 and p1.  YROW2
// and ZROW2 name the registers of the 8- and 16-wide tiles: b in 8 and 9,
// the broadcast in 10, the products in 11 and 12.
#define ROW2(aaddr, acc0, acc1, bc, b0, b1, p0, p1) \
	VBROADCASTSD aaddr, bc; \
	MULADD(bc, b0, p0, acc0); \
	MULADD(bc, b1, p1, acc1)
#define YROW2(aaddr, acc0, acc1) ROW2(aaddr, acc0, acc1, Y10, Y8, Y9, Y11, Y12)
#define ZROW2(aaddr, acc0, acc1) ROW2(aaddr, acc0, acc1, Z10, Z8, Z9, Z11, Z12)

// YROW1 adds a[row]·Y8 into the row's one accumulator (the 4-wide tiles).
#define YROW1(aaddr, acc0) \
	VBROADCASTSD aaddr, Y10; \
	MULADD(Y10, Y8, Y11, acc0)

// func kern4x16(c *float64, ldc int, a *float64, ars, ard int, b *float64, ldb, t int)
TEXT ·kern4x16(SB), NOSPLIT, $0-64
	LOADARGS
	LEAQ (R8)(R8*2), R11 // 3·ars·8
	LEAQ (DI)(SI*2), DX  // row 2 of the tile
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD (DI)(SI*1), Z2
	VMOVUPD 64(DI)(SI*1), Z3
	VMOVUPD (DX), Z4
	VMOVUPD 64(DX), Z5
	VMOVUPD (DX)(SI*1), Z6
	VMOVUPD 64(DX)(SI*1), Z7
	TESTQ CX, CX
	JLE store416

loop416:
	VMOVUPD (BX), Z8
	VMOVUPD 64(BX), Z9
	ZROW2((AX), Z0, Z1)
	ZROW2((AX)(R8*1), Z2, Z3)
	ZROW2((AX)(R8*2), Z4, Z5)
	ZROW2((AX)(R11*1), Z6, Z7)
	ADDQ R9, AX
	ADDQ R10, BX
	DECQ CX
	JNZ  loop416

store416:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, (DI)(SI*1)
	VMOVUPD Z3, 64(DI)(SI*1)
	VMOVUPD Z4, (DX)
	VMOVUPD Z5, 64(DX)
	VMOVUPD Z6, (DX)(SI*1)
	VMOVUPD Z7, 64(DX)(SI*1)
	VZEROUPPER
	RET

// func kern1x16(c *float64, ldc int, a *float64, ars, ard int, b *float64, ldb, t int)
TEXT ·kern1x16(SB), NOSPLIT, $0-64
	LOADARGS
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	TESTQ CX, CX
	JLE store116

loop116:
	VMOVUPD (BX), Z8
	VMOVUPD 64(BX), Z9
	ZROW2((AX), Z0, Z1)
	ADDQ R9, AX
	ADDQ R10, BX
	DECQ CX
	JNZ  loop116

store116:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VZEROUPPER
	RET

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
	YROW2((AX), Y0, Y1)
	YROW2((AX)(R8*1), Y2, Y3)
	YROW2((AX)(R8*2), Y4, Y5)
	YROW2((AX)(R11*1), Y6, Y7)
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
	YROW1((AX), Y0)
	YROW1((AX)(R8*1), Y2)
	YROW1((AX)(R8*2), Y4)
	YROW1((AX)(R11*1), Y6)
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
	YROW2((AX), Y0, Y1)
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
	YROW1((AX), Y0)
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
