//go:build amd64

#include "textflag.h"

// CPUID/XGETBV probes and the AVX2 and AVX-512 block primitives of
// SubCmpNarrowBits (see kernel_amd64.go for contracts). All functions
// are leaf NOSPLIT with unaligned vector loads/stores (the coefficient
// planes are []uint64, 8-byte aligned only, and a token row may start
// at any byte of a request payload), and every vector function
// executes VZEROUPPER before returning to avoid SSE transition stalls
// in the caller.

// NARROWARGS loads the shared arguments of the two narrow compare
// blocks, below. (Defined before the first TEXT block: vet's asmdecl
// pass attributes FP references on #define lines to the enclosing TEXT
// symbol.)
#define NARROWARGS \
	MOVQ out+0(FP), DI;    \
	MOVQ a+8(FP), SI;      \
	MOVQ d+16(FP), DX;     \
	MOVQ low+24(FP), BX;   \
	MOVQ top+32(FP), R8;   \
	MOVQ nrhs+40(FP), CX;  \
	MOVQ off+48(FP), R9

// func kernelCPUID(op, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·kernelCPUID(SB), NOSPLIT, $0-24
	MOVL op+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func kernelXGETBV0() (eax, edx uint32)
TEXT ·kernelXGETBV0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// Narrow compare blocks (SubCmpNarrowBits). One call covers one
// 64-coefficient block for nrhs >= 1 comparand rows of uint16 lanes:
// the block's differences D = a - d are computed once, their guard
// word — bit k set iff (D ^ low) & lm == 0, the low part below bit s
// matching — collects in R11, and their narrow lanes uint16(D >> s)
// stay packed in registers while every comparand row is compared
// straight from memory and the guard is ANDed into its verdict word
// out[v]. The row data pointers are read from the [][]uint16 headers
// (24-byte stride) at R8; R9 is the block's byte offset in every row.
//
// The token row at DX holds 4- or 8-byte lanes (the lb argument). The
// two widths differ only in how a lane reaches its 64-bit vector slot —
// a plain load, or VPMOVZXDQ zero-extending 4-byte lanes from half as
// many bytes — so each block macro takes its load as a parameter (LD,
// with the row's byte offset doff) and everything after the load is
// shared. Each primitive branches on lb once, packs the block's lanes
// through one of two expansions of the same macros, and joins the
// shared comparand loop.

// Token-row loads: LD8* reads 8-byte lanes, LD4* zero-extends 4-byte
// lanes; Y forms load 4 lanes, Z forms 8.
#define LD8Y(doff, y) VMOVDQU   doff(DX), y
#define LD4Y(doff, y) VPMOVZXDQ doff(DX), y
#define LD8Z(doff, z) VMOVDQU64 doff(DX), z
#define LD4Z(doff, z) VPMOVZXDQ doff(DX), z

// narrowPermAVX2 is the VPERMD index that restores coefficient order
// after two rounds of in-lane VPACKUSDW (dword pairs 0,4,1,5,2,6,3,7).
DATA narrowPermAVX2<>+0(SB)/4, $0
DATA narrowPermAVX2<>+4(SB)/4, $4
DATA narrowPermAVX2<>+8(SB)/4, $1
DATA narrowPermAVX2<>+12(SB)/4, $5
DATA narrowPermAVX2<>+16(SB)/4, $2
DATA narrowPermAVX2<>+20(SB)/4, $6
DATA narrowPermAVX2<>+24(SB)/4, $3
DATA narrowPermAVX2<>+28(SB)/4, $7
GLOBL narrowPermAVX2<>(SB), RODATA|NOPTR, $32

// NARROWQ4 handles 4 coefficients at byte offset off (token row offset
// doff, loaded by LD): the guard bits land at bit sh of R11 (low-part
// mask in Y15, zero in Y5), and yd keeps the narrow lanes zero-extended
// to 64 bits (shift count in X14, 0xFFFF per qword in Y13). Y4 is
// scratch.
#define NARROWQ4(LD, off, doff, sh, yd) \
	LD(doff, Y4);              \
	VMOVDQU   off(SI), yd;     \
	VPSUBQ    Y4, yd, yd;      \
	VPXOR     off(BX), yd, Y4; \
	VPAND     Y15, Y4, Y4;     \
	VPCMPEQQ  Y5, Y4, Y4;      \
	VMOVMSKPD Y4, AX;          \
	SHLQ      $sh, AX;         \
	ORQ       AX, R11;         \
	VPSRLQ    X14, yd, yd;     \
	VPAND     Y13, yd, yd

// NARROW16AVX2 packs the narrow lanes of 16 coefficients into yh in
// coefficient order: two in-lane unsigned-saturating packs (exact, as
// every lane is below 2^16) and one cross-lane dword permute (Y12).
// dstep is the token-row bytes of 4 lanes.
#define NARROW16AVX2(LD, off, doff, dstep, sh, yh) \
	NARROWQ4(LD, off, doff, sh, Y0);                \
	NARROWQ4(LD, off+32, doff+dstep, sh+4, Y1);     \
	NARROWQ4(LD, off+64, doff+2*dstep, sh+8, Y2);   \
	NARROWQ4(LD, off+96, doff+3*dstep, sh+12, Y3);  \
	VPACKUSDW Y1, Y0, Y0;        \
	VPACKUSDW Y3, Y2, Y2;        \
	VPACKUSDW Y2, Y0, Y0;        \
	VPERMD    Y0, Y12, yh

// func subCmpNarrowBlock64AVX2(out, a *uint64, d *byte, low *uint64, top *[]uint16, nrhs, off int, lm, s uint64, lb int)
TEXT ·subCmpNarrowBlock64AVX2(SB), NOSPLIT, $0-80
	NARROWARGS
	VPBROADCASTQ lm+56(FP), Y15
	VMOVQ        s+64(FP), X14
	VPCMPEQQ     Y13, Y13, Y13
	VPSRLQ       $48, Y13, Y13
	VMOVDQU      narrowPermAVX2<>(SB), Y12
	VPXOR        Y5, Y5, Y5
	XORQ         R11, R11
	MOVQ         lb+72(FP), AX
	CMPQ         AX, $4
	JEQ          narrowavx2lanes4
	NARROW16AVX2(LD8Y, 0, 0, 32, 0, Y8)
	NARROW16AVX2(LD8Y, 128, 128, 32, 16, Y9)
	NARROW16AVX2(LD8Y, 256, 256, 32, 32, Y10)
	NARROW16AVX2(LD8Y, 384, 384, 32, 48, Y11)
	JMP          narrowavx2loop

narrowavx2lanes4:
	NARROW16AVX2(LD4Y, 0, 0, 16, 0, Y8)
	NARROW16AVX2(LD4Y, 128, 64, 16, 16, Y9)
	NARROW16AVX2(LD4Y, 256, 128, 16, 32, Y10)
	NARROW16AVX2(LD4Y, 384, 192, 16, 48, Y11)

	// Per comparand: 4 × VPCMPEQW (16 lanes each), signed-saturating
	// byte packs (equal lanes are -1, which packs to -1) and a qword
	// permute to undo the packs' lane interleave, then VPMOVMSKB
	// yields 32 verdict bits per half.
narrowavx2loop:
	MOVQ      (R8), R10
	ADDQ      R9, R10
	VPCMPEQW  0(R10), Y8, Y6
	VPCMPEQW  32(R10), Y9, Y7
	VPACKSSWB Y7, Y6, Y6
	VPERMQ    $0xD8, Y6, Y6
	VPMOVMSKB Y6, AX
	VPCMPEQW  64(R10), Y10, Y6
	VPCMPEQW  96(R10), Y11, Y7
	VPACKSSWB Y7, Y6, Y6
	VPERMQ    $0xD8, Y6, Y6
	VPMOVMSKB Y6, R10
	SHLQ      $32, R10
	ORQ       R10, AX
	ANDQ      R11, AX
	MOVQ      AX, (DI)
	ADDQ      $24, R8
	ADDQ      $8, DI
	DECQ      CX
	JNZ       narrowavx2loop
	VZEROUPPER
	RET

// NARROW512 handles 8 coefficients at byte offset off (token row
// offset doff, loaded by LD): the guard bits land in kk (VPTESTNMQ
// against the low-part mask in Z8) and the 8 narrow lanes are
// truncated into xo (shift count in X9, Z10 scratch).
#define NARROW512(LD, off, doff, kk, xo) \
	LD(doff, Z10);             \
	VMOVDQU64 off(SI), Z0;     \
	VPSUBQ    Z10, Z0, Z0;     \
	VPXORQ    off(BX), Z0, Z10; \
	VPTESTNMQ Z8, Z10, kk;     \
	VPSRLQ    X9, Z0, Z0;      \
	VPMOVQW   Z0, xo

// func subCmpNarrowBlock64AVX512(out, a *uint64, d *byte, low *uint64, top *[]uint16, nrhs, off int, lm, s uint64, lb int)
TEXT ·subCmpNarrowBlock64AVX512(SB), NOSPLIT, $0-80
	NARROWARGS
	VPBROADCASTQ lm+56(FP), Z8
	VMOVQ        s+64(FP), X9
	MOVQ         lb+72(FP), AX
	CMPQ         AX, $4
	JEQ          narrow512lanes4
	NARROW512(LD8Z, 0, 0, K0, X16)
	NARROW512(LD8Z, 64, 64, K1, X17)
	NARROW512(LD8Z, 128, 128, K2, X18)
	NARROW512(LD8Z, 192, 192, K3, X19)
	NARROW512(LD8Z, 256, 256, K4, X20)
	NARROW512(LD8Z, 320, 320, K5, X21)
	NARROW512(LD8Z, 384, 384, K6, X22)
	NARROW512(LD8Z, 448, 448, K7, X23)
	JMP          narrow512packed

narrow512lanes4:
	NARROW512(LD4Z, 0, 0, K0, X16)
	NARROW512(LD4Z, 64, 32, K1, X17)
	NARROW512(LD4Z, 128, 64, K2, X18)
	NARROW512(LD4Z, 192, 96, K3, X19)
	NARROW512(LD4Z, 256, 128, K4, X20)
	NARROW512(LD4Z, 320, 160, K5, X21)
	NARROW512(LD4Z, 384, 192, K6, X22)
	NARROW512(LD4Z, 448, 224, K7, X23)

narrow512packed:
	VINSERTI32X4 $1, X17, Z16, Z16
	VINSERTI32X4 $2, X18, Z16, Z16
	VINSERTI32X4 $3, X19, Z16, Z16
	VINSERTI32X4 $1, X21, Z20, Z20
	VINSERTI32X4 $2, X22, Z20, Z20
	VINSERTI32X4 $3, X23, Z20, Z20
	KUNPCKBW     K0, K1, K0
	KUNPCKBW     K2, K3, K2
	KUNPCKBW     K4, K5, K4
	KUNPCKBW     K6, K7, K6
	KUNPCKWD     K0, K2, K0
	KUNPCKWD     K4, K6, K4
	KUNPCKDQ     K0, K4, K0
	KMOVQ        K0, R11

	// Per comparand: 2 × VPCMPEQW (32 lanes each) into one 64-bit mask.
narrow512loop:
	MOVQ     (R8), R10
	ADDQ     R9, R10
	VPCMPEQW 0(R10), Z16, K1
	VPCMPEQW 64(R10), Z20, K2
	KUNPCKDQ K1, K2, K1
	KMOVQ    K1, AX
	ANDQ     R11, AX
	MOVQ     AX, (DI)
	ADDQ     $24, R8
	ADDQ     $8, DI
	DECQ     CX
	JNZ      narrow512loop
	VZEROUPPER
	RET
