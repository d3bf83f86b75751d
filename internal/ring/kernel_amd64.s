//go:build amd64

#include "textflag.h"

// AVX2 and AVX-512 block primitives for the ring compare kernels (see
// kernel_amd64.go for contracts). All functions are leaf NOSPLIT with
// unaligned 256/512-bit loads/stores (the coefficient planes are
// []uint64, 8-byte aligned only), and every vector function executes
// VZEROUPPER before returning to avoid SSE transition stalls in the
// caller.

// GENCONSTS materialises the generic-q constants from the q argument
// (byte offset 24 in the generic signature): Y4 = q,
// Y5 = 0x8000000000000000, Y6 = (q-1) ^ 0x8000000000000000. Every
// instruction is VEX-encoded on purpose — a legacy-SSE GPR→XMM MOVQ
// here would mix SSE with dirty YMM upper state once per 64-coeff
// block and eat the AVX transition penalty. The sign bit is built in
// registers (all-ones shifted left 63) and q-1 as q plus all-ones (-1).
// (Defined before the first TEXT block: vet's asmdecl pass attributes
// FP references on #define lines to the enclosing TEXT symbol.)
#define GENCONSTS \
	VPBROADCASTQ q+24(FP), Y4; \
	VPCMPEQQ     Y5, Y5, Y5;   \
	VPADDQ       Y5, Y4, Y6;   \
	VPSLLQ       $63, Y5, Y5;  \
	VPXOR        Y5, Y6, Y6

// SUBCMPARGS loads the shared arguments and broadcasts the modulus
// argument (mask or q) into Z8 for the two AVX-512 subtract-and-compare
// blocks (byte offsets of their shared signature).
#define SUBCMPARGS \
	MOVQ         out+0(FP), DI;   \
	MOVQ         a+8(FP), SI;     \
	MOVQ         d+16(FP), DX;    \
	MOVQ         rhs+24(FP), R8;  \
	MOVQ         nrhs+32(FP), CX; \
	MOVQ         off+40(FP), R9;  \
	VPBROADCASTQ m+48(FP), Z8

// NARROWARGS loads the shared arguments of the two narrow compare
// blocks (SubCmpNarrowBits), below.
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

// POW2GROUP computes one 4-lane group of dst[k] = (a[k] - d[k]) & mask
// with the mask broadcast in Y3. off is the byte offset of the group.
#define POW2GROUP(off) \
	VMOVDQU off(SI), Y0;     \
	VPSUBQ  off(DX), Y0, Y0; \
	VPAND   Y3, Y0, Y0;      \
	VMOVDQU Y0, off(DI)

// func diffPow2Block64AVX2(dst, a, d *uint64, mask uint64)
TEXT ·diffPow2Block64AVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         d+16(FP), DX
	VPBROADCASTQ mask+24(FP), Y3
	MOVQ         $4, CX

pow2diffloop:
	POW2GROUP(0)
	POW2GROUP(32)
	POW2GROUP(64)
	POW2GROUP(96)
	ADDQ $128, SI
	ADDQ $128, DX
	ADDQ $128, DI
	DECQ CX
	JNZ  pow2diffloop
	VZEROUPPER
	RET

// GENREDUCE conditionally subtracts q from the 4 lanes of Y0 holding
// t < 2^58: flip the sign bit of t and compare signed against
// (q-1)^signbit (Y6) — true exactly when t >= q unsigned — then mask q
// (Y4) with the compare result and subtract. Y1 is scratch.
#define GENREDUCE \
	VPXOR    Y5, Y0, Y1; \
	VPCMPGTQ Y6, Y1, Y1; \
	VPAND    Y4, Y1, Y1; \
	VPSUBQ   Y1, Y0, Y0

// GENDIFFGROUP computes dst[k] = (a[k] + q - d[k]) mod q for one
// 4-lane group: q broadcast in Y4, sign-bit constant in Y5,
// (q-1)^signbit in Y6.
#define GENDIFFGROUP(off) \
	VMOVDQU off(SI), Y0;     \
	VPADDQ  Y4, Y0, Y0;      \
	VPSUBQ  off(DX), Y0, Y0; \
	GENREDUCE;               \
	VMOVDQU Y0, off(DI)

// func diffGenericBlock64AVX2(dst, a, d *uint64, q uint64)
TEXT ·diffGenericBlock64AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ d+16(FP), DX
	GENCONSTS
	MOVQ $4, CX

gendiffloop:
	GENDIFFGROUP(0)
	GENDIFFGROUP(32)
	GENDIFFGROUP(64)
	GENDIFFGROUP(96)
	ADDQ $128, SI
	ADDQ $128, DX
	ADDQ $128, DI
	DECQ CX
	JNZ  gendiffloop
	VZEROUPPER
	RET

// CMPGROUP compares one 4-lane group of x (SI) against y (DX),
// extracts the 4 lane sign bits with VMOVMSKPD (VPCMPEQQ lanes are
// all-ones on equality, so the sign bit is the verdict), shifts them
// to bit position sh and ORs into the accumulator AX.
#define CMPGROUP(off, sh) \
	VMOVDQU   off(SI), Y0;     \
	VPCMPEQQ  off(DX), Y0, Y0; \
	VMOVMSKPD Y0, BX;          \
	SHLQ      $sh, BX;         \
	ORQ       BX, AX

// func cmpEqBlock64AVX2(x, y *uint64) uint64
TEXT ·cmpEqBlock64AVX2(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DX
	XORQ AX, AX
	CMPGROUP(0, 0)
	CMPGROUP(32, 4)
	CMPGROUP(64, 8)
	CMPGROUP(96, 12)
	CMPGROUP(128, 16)
	CMPGROUP(160, 20)
	CMPGROUP(192, 24)
	CMPGROUP(224, 28)
	CMPGROUP(256, 32)
	CMPGROUP(288, 36)
	CMPGROUP(320, 40)
	CMPGROUP(352, 44)
	CMPGROUP(384, 48)
	CMPGROUP(416, 52)
	CMPGROUP(448, 56)
	CMPGROUP(480, 60)
	MOVQ AX, ret+16(FP)
	VZEROUPPER
	RET

// AVX-512 fused subtract-and-compare block. One call covers one
// 64-coefficient word for nrhs >= 1 comparands: the 64 differences are
// computed once into Z0-Z7 (8 lanes each) and stay there while every
// comparand is compared straight from memory into K0-K7, whose eight
// byte masks pack into the 64-bit verdict word out[v]. The comparand
// data pointers are read from the []Poly headers (24-byte stride) at
// rhs; off is the byte offset of the word inside every comparand.

// SUBCMPLOOP walks the comparands: R8 = &rhs[0] header, CX = nrhs
// (counts down, never entered with 0), DI = out, R9 = off.
#define SUBCMPLOOP(label) \
label:                               \
	MOVQ      (R8), R10;             \
	ADDQ      R9, R10;               \
	VPCMPEQQ  0(R10), Z0, K0;        \
	VPCMPEQQ  64(R10), Z1, K1;       \
	VPCMPEQQ  128(R10), Z2, K2;      \
	VPCMPEQQ  192(R10), Z3, K3;      \
	VPCMPEQQ  256(R10), Z4, K4;      \
	VPCMPEQQ  320(R10), Z5, K5;      \
	VPCMPEQQ  384(R10), Z6, K6;      \
	VPCMPEQQ  448(R10), Z7, K7;      \
	KUNPCKBW  K0, K1, K0;            \
	KUNPCKBW  K2, K3, K2;            \
	KUNPCKBW  K4, K5, K4;            \
	KUNPCKBW  K6, K7, K6;            \
	KUNPCKWD  K0, K2, K0;            \
	KUNPCKWD  K4, K6, K4;            \
	KUNPCKDQ  K0, K4, K0;            \
	KMOVQ     K0, AX;                \
	MOVQ      AX, (DI);              \
	ADDQ      $24, R8;               \
	ADDQ      $8, DI;                \
	DECQ      CX;                    \
	JNZ       label;                 \
	VZEROUPPER;                      \
	RET

// POW2DIFF512 leaves (a[k] - d[k]) & mask for 8 lanes in zk.
#define POW2DIFF512(off, zk) \
	VMOVDQU64 off(SI), zk;     \
	VPSUBQ    off(DX), zk, zk; \
	VPANDQ    Z8, zk, zk

// func subCmpPow2Block64AVX512(out, a, d *uint64, rhs *Poly, nrhs, off int, m uint64)
TEXT ·subCmpPow2Block64AVX512(SB), NOSPLIT, $0-56
	SUBCMPARGS
	POW2DIFF512(0, Z0)
	POW2DIFF512(64, Z1)
	POW2DIFF512(128, Z2)
	POW2DIFF512(192, Z3)
	POW2DIFF512(256, Z4)
	POW2DIFF512(320, Z5)
	POW2DIFF512(384, Z6)
	POW2DIFF512(448, Z7)
	SUBCMPLOOP(pow2cmploop)

// GENDIFF512 leaves (a[k] + q - d[k]) mod q for 8 lanes in zk: t is
// below 2q < 2^58, and the unsigned compare t >= q (predicate 5, NLT)
// selects the lanes that get q subtracted under the K1 write mask.
#define GENDIFF512(off, zk) \
	VMOVDQU64 off(SI), zk;     \
	VPADDQ    Z8, zk, zk;      \
	VPSUBQ    off(DX), zk, zk; \
	VPCMPUQ   $5, Z8, zk, K1;  \
	VPSUBQ    Z8, zk, K1, zk

// func subCmpGenericBlock64AVX512(out, a, d *uint64, rhs *Poly, nrhs, off int, m uint64)
TEXT ·subCmpGenericBlock64AVX512(SB), NOSPLIT, $0-56
	SUBCMPARGS
	GENDIFF512(0, Z0)
	GENDIFF512(64, Z1)
	GENDIFF512(128, Z2)
	GENDIFF512(192, Z3)
	GENDIFF512(256, Z4)
	GENDIFF512(320, Z5)
	GENDIFF512(384, Z6)
	GENDIFF512(448, Z7)
	SUBCMPLOOP(gencmploop)

// Narrow compare blocks (SubCmpNarrowBits). One call covers one
// 64-coefficient block for nrhs >= 1 comparand rows of uint16 lanes:
// the block's differences D = a - d are computed once, their guard
// word — bit k set iff (D ^ low) & lm == 0, the low part below bit s
// matching — collects in R11, and their narrow lanes uint16(D >> s)
// stay packed in registers while every comparand row is compared
// straight from memory and the guard is ANDed into its verdict word
// out[v]. The row data pointers are read from the [][]uint16 headers
// (24-byte stride) at R8; R9 is the block's byte offset in every row.

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

// NARROWQ4 handles 4 coefficients at byte offset off: the guard bits
// land at bit sh of R11 (low-part mask in Y15, zero in Y5), and yd
// keeps the narrow lanes zero-extended to 64 bits (shift count in X14,
// 0xFFFF per qword in Y13). Y4 is scratch.
#define NARROWQ4(off, sh, yd) \
	VMOVDQU   off(SI), yd;     \
	VPSUBQ    off(DX), yd, yd; \
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
#define NARROW16AVX2(off, sh, yh) \
	NARROWQ4(off, sh, Y0);       \
	NARROWQ4(off+32, sh+4, Y1);  \
	NARROWQ4(off+64, sh+8, Y2);  \
	NARROWQ4(off+96, sh+12, Y3); \
	VPACKUSDW Y1, Y0, Y0;        \
	VPACKUSDW Y3, Y2, Y2;        \
	VPACKUSDW Y2, Y0, Y0;        \
	VPERMD    Y0, Y12, yh

// func subCmpNarrowBlock64AVX2(out, a, d, low *uint64, top *[]uint16, nrhs, off int, lm, s uint64)
TEXT ·subCmpNarrowBlock64AVX2(SB), NOSPLIT, $0-72
	NARROWARGS
	VPBROADCASTQ lm+56(FP), Y15
	VMOVQ        s+64(FP), X14
	VPCMPEQQ     Y13, Y13, Y13
	VPSRLQ       $48, Y13, Y13
	VMOVDQU      narrowPermAVX2<>(SB), Y12
	VPXOR        Y5, Y5, Y5
	XORQ         R11, R11
	NARROW16AVX2(0, 0, Y8)
	NARROW16AVX2(128, 16, Y9)
	NARROW16AVX2(256, 32, Y10)
	NARROW16AVX2(384, 48, Y11)

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

// NARROW512 handles 8 coefficients at byte offset off: the guard bits
// land in kk (VPTESTNMQ against the low-part mask in Z8) and the 8
// narrow lanes are truncated into xo (shift count in X9, Z10 scratch).
#define NARROW512(off, kk, xo) \
	VMOVDQU64 off(SI), Z0;     \
	VPSUBQ    off(DX), Z0, Z0; \
	VPXORQ    off(BX), Z0, Z10; \
	VPTESTNMQ Z8, Z10, kk;     \
	VPSRLQ    X9, Z0, Z0;      \
	VPMOVQW   Z0, xo

// func subCmpNarrowBlock64AVX512(out, a, d, low *uint64, top *[]uint16, nrhs, off int, lm, s uint64)
TEXT ·subCmpNarrowBlock64AVX512(SB), NOSPLIT, $0-72
	NARROWARGS
	VPBROADCASTQ lm+56(FP), Z8
	VMOVQ        s+64(FP), X9
	NARROW512(0, K0, X16)
	NARROW512(64, K1, X17)
	NARROW512(128, K2, X18)
	NARROW512(192, K3, X19)
	NARROW512(256, K4, X20)
	NARROW512(320, K5, X21)
	NARROW512(384, K6, X22)
	NARROW512(448, K7, X23)
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
