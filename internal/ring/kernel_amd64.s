//go:build amd64

#include "textflag.h"

// AVX2 block primitives for the ring compare kernels (see
// kernel_amd64.go for contracts). All functions are leaf NOSPLIT with
// unaligned 256-bit loads/stores (the coefficient planes are []uint64,
// 8-byte aligned only), and every VEX-encoded function executes
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

// CMPSGROUP compares one 4-lane group of x (SI) against the broadcast
// scalar in Y3, accumulating like CMPGROUP.
#define CMPSGROUP(off, sh) \
	VMOVDQU   off(SI), Y0; \
	VPCMPEQQ  Y3, Y0, Y0;  \
	VMOVMSKPD Y0, BX;      \
	SHLQ      $sh, BX;     \
	ORQ       BX, AX

// func cmpEqScalarBlock64AVX2(x *uint64, v uint64) uint64
TEXT ·cmpEqScalarBlock64AVX2(SB), NOSPLIT, $0-24
	MOVQ         x+0(FP), SI
	VPBROADCASTQ v+8(FP), Y3
	XORQ         AX, AX
	CMPSGROUP(0, 0)
	CMPSGROUP(32, 4)
	CMPSGROUP(64, 8)
	CMPSGROUP(96, 12)
	CMPSGROUP(128, 16)
	CMPSGROUP(160, 20)
	CMPSGROUP(192, 24)
	CMPSGROUP(224, 28)
	CMPSGROUP(256, 32)
	CMPSGROUP(288, 36)
	CMPSGROUP(320, 40)
	CMPSGROUP(352, 44)
	CMPSGROUP(384, 48)
	CMPSGROUP(416, 52)
	CMPSGROUP(448, 56)
	CMPSGROUP(480, 60)
	MOVQ AX, ret+16(FP)
	VZEROUPPER
	RET
