//go:build amd64

#include "textflag.h"

// CPUID/XGETBV probes and the AVX2 and AVX-512 stage primitives of
// SubCmpNarrowBits (see kernel_amd64.go for contracts). All functions
// are leaf NOSPLIT with unaligned vector loads/stores (the coefficient
// planes are []uint64, 8-byte aligned only, and a token row may start
// at any byte of a request payload), and every vector function
// executes VZEROUPPER before returning to avoid SSE transition stalls
// in the caller.

// Layout constants shared with narrow.go: laneTile's guard, flags and
// rows words sit 16, 17 and 18 KiB past its 128 blocks of 64 lanes, and
// a NarrowChunk is 72 bytes with the data pointers of A and D at bytes
// 0 and 24 and its Top slice header at byte 48 (TestNarrowLayout pins
// them all).
#define TILE_GUARD 16384
#define TILE_FLAGS 17408
#define TILE_ROWS 18432
#define CHUNK_A 0
#define CHUNK_D 24
#define CHUNK_TOP 48
#define CHUNK_SIZE 72

// EXACTARGS loads the exact compares' arguments. (Defined before the
// first TEXT block: vet's asmdecl pass attributes FP references on
// #define lines to the enclosing TEXT symbol.)
#define EXACTARGS \
	MOVQ out+0(FP), DI;    \
	MOVQ sc+8(FP), SI;     \
	MOVQ x+16(FP), R10;    \
	MOVQ step+24(FP), R14; \
	MOVQ nb+32(FP), R11;   \
	MOVQ top+40(FP), R8;   \
	MOVQ nrhs+48(FP), R13; \
	MOVQ off+56(FP), R9;   \
	MOVQ word+64(FP), R12

// NARROWARGS loads the stage 1 primitives' arguments: the scratch
// block pointers R13 (lanes) and R12 (guard word) of block x, the row
// offsets R9 = 8i (coefficients) and R10 = lb·i (token row), and the
// low row's block in BX.
#define NARROWARGS \
	MOVQ  sc+0(FP), DI;              \
	MOVQ  tile+8(FP), R8;            \
	MOVQ  spans+16(FP), CX;          \
	MOVQ  x+24(FP), R11;             \
	MOVQ  i+32(FP), R9;              \
	MOVQ  low+40(FP), BX;            \
	MOVQ  lb+64(FP), R10;            \
	IMULQ R9, R10;                   \
	SHLQ  $3, R9;                    \
	MOVQ  R11, R13;                  \
	SHLQ  $7, R13;                   \
	ADDQ  DI, R13;                   \
	LEAQ  TILE_GUARD(DI)(R11*8), R12

// FILTERARGS loads the filters' arguments: SI the scratch, R8 the
// tile, CX the span count, R11 the first scratch block, R9 the row
// offset.
#define FILTERARGS \
	MOVQ sc+0(FP), SI;      \
	MOVQ tile+8(FP), R8;    \
	MOVQ spans+16(FP), CX;  \
	MOVQ x+24(FP), R11;     \
	MOVQ off+32(FP), R9

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

// Stage 1 (narrowLanes*): per 64-coefficient block, the differences
// D = a - d are computed once, their guard word — bit k set iff
// (D ^ low) & lm == 0, the low part below bit s matching — collects in
// R11 (AVX2) or the opmasks (AVX-512), and their narrow lanes
// uint16(D >> s) are stored to the scratch block at R13, the guard word
// to (R12).
//
// The token row at DX holds 4- or 8-byte lanes (the lb argument). The
// two widths differ only in how a lane reaches its 64-bit vector slot —
// a plain load, or VPMOVZXDQ zero-extending 4-byte lanes from half as
// many bytes — so each block macro takes its load as a parameter (LD,
// with the row's byte offset doff) and everything after the load is
// shared. Each primitive branches on lb once and runs one of two
// expansions of the same block loop.
//
// Stage 2 reads only the scratch and the comparand rows, whose data
// pointers come from [][]uint16 headers (24-byte stride); R9 is the
// current block's byte offset in every row.

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

// NARROWBLOCKAVX2 narrows one block of 64 coefficients: four
// NARROW16AVX2 rounds, lanes stored to (R13), guard word to (R12).
// dstep is the token-row bytes of 4 lanes.
#define NARROWBLOCKAVX2(LD, dstep) \
	XORQ R11, R11;                                   \
	NARROW16AVX2(LD, 0, 0, dstep, 0, Y8);             \
	NARROW16AVX2(LD, 128, 4*dstep, dstep, 16, Y9);    \
	NARROW16AVX2(LD, 256, 8*dstep, dstep, 32, Y10);   \
	NARROW16AVX2(LD, 384, 12*dstep, dstep, 48, Y11);  \
	VMOVDQU Y8, 0(R13);                              \
	VMOVDQU Y9, 32(R13);                             \
	VMOVDQU Y10, 64(R13);                            \
	VMOVDQU Y11, 96(R13);                            \
	MOVQ    R11, (R12)

// The stage 1 primitives narrow one block position — coefficients i …
// i+63 — of each of spans chunks of the tile at R8 into the consecutive
// scratch blocks from x. Per chunk, NARROWSPAN points SI and DX at the
// block in its A and D, and NARROWNEXT steps to the next chunk and
// scratch block and counts it off CX.
#define NARROWSPAN \
	MOVQ CHUNK_A(R8), SI; \
	ADDQ R9, SI;          \
	MOVQ CHUNK_D(R8), DX; \
	ADDQ R10, DX

// PREFETCHAHEAD4 and PREFETCHAHEAD8 prefetch, into L2, the block one
// tile ahead of the current one, R11 and R14 bytes past SI and DX: its
// 8 lines of A and its 4 or 8 lines of D (4- or 8-byte lanes).
#define PREFETCHAHEAD4 \
	PREFETCHT1 (SI)(R11*1);    \
	PREFETCHT1 64(SI)(R11*1);  \
	PREFETCHT1 128(SI)(R11*1); \
	PREFETCHT1 192(SI)(R11*1); \
	PREFETCHT1 256(SI)(R11*1); \
	PREFETCHT1 320(SI)(R11*1); \
	PREFETCHT1 384(SI)(R11*1); \
	PREFETCHT1 448(SI)(R11*1); \
	PREFETCHT1 (DX)(R14*1);    \
	PREFETCHT1 64(DX)(R14*1);  \
	PREFETCHT1 128(DX)(R14*1); \
	PREFETCHT1 192(DX)(R14*1)

#define PREFETCHAHEAD8 \
	PREFETCHAHEAD4;            \
	PREFETCHT1 256(DX)(R14*1); \
	PREFETCHT1 320(DX)(R14*1); \
	PREFETCHT1 384(DX)(R14*1); \
	PREFETCHT1 448(DX)(R14*1)

#define NARROWNEXT \
	ADDQ $CHUNK_SIZE, R8; \
	ADDQ $128, R13;       \
	ADDQ $8, R12;         \
	DECQ CX

// func narrowLanesAVX2(sc *laneTile, tile *NarrowChunk, spans, x, i int, low *uint64, lm, s uint64, lb int)
TEXT ·narrowLanesAVX2(SB), NOSPLIT, $0-72
	NARROWARGS
	VPBROADCASTQ lm+48(FP), Y15
	VMOVQ        s+56(FP), X14
	VPCMPEQQ     Y13, Y13, Y13
	VPSRLQ       $48, Y13, Y13
	VMOVDQU      narrowPermAVX2<>(SB), Y12
	VPXOR        Y5, Y5, Y5
	MOVQ         lb+64(FP), AX
	CMPQ         AX, $4
	JEQ          lanesavx2w4

lanesavx2w8:
	NARROWSPAN
	NARROWBLOCKAVX2(LD8Y, 32)
	NARROWNEXT
	JNZ lanesavx2w8
	VZEROUPPER
	RET

lanesavx2w4:
	NARROWSPAN
	NARROWBLOCKAVX2(LD4Y, 16)
	NARROWNEXT
	JNZ lanesavx2w4
	VZEROUPPER
	RET

// NARROW512 handles 8 coefficients at byte offset off (token row
// offset doff, loaded by LD): the guard bits land in kk (VPTESTNMQ
// against the low-part mask in Z8) and the 8 narrow lanes are
// truncated straight to the scratch at lout(R13) (shift count in X9,
// Z10 scratch).
#define NARROW512(LD, off, doff, kk, lout) \
	LD(doff, Z10);              \
	VMOVDQU64 off(SI), Z0;      \
	VPSUBQ    Z10, Z0, Z0;      \
	VPXORQ    off(BX), Z0, Z10; \
	VPTESTNMQ Z8, Z10, kk;      \
	VPSRLQ    X9, Z0, Z0;       \
	VPMOVQW   Z0, lout(R13)

// NARROWBLOCK512 narrows one block of 64 coefficients and stores its
// guard word, gathered from the eight opmasks, to (R12). dstep is the
// token-row bytes of 8 lanes.
#define NARROWBLOCK512(LD, dstep) \
	NARROW512(LD, 0, 0, K0, 0);           \
	NARROW512(LD, 64, dstep, K1, 16);     \
	NARROW512(LD, 128, 2*dstep, K2, 32);  \
	NARROW512(LD, 192, 3*dstep, K3, 48);  \
	NARROW512(LD, 256, 4*dstep, K4, 64);  \
	NARROW512(LD, 320, 5*dstep, K5, 80);  \
	NARROW512(LD, 384, 6*dstep, K6, 96);  \
	NARROW512(LD, 448, 7*dstep, K7, 112); \
	KUNPCKBW K0, K1, K0;                  \
	KUNPCKBW K2, K3, K2;                  \
	KUNPCKBW K4, K5, K4;                  \
	KUNPCKBW K6, K7, K6;                  \
	KUNPCKWD K0, K2, K0;                  \
	KUNPCKWD K4, K6, K4;                  \
	KUNPCKDQ K0, K4, K0;                  \
	KMOVQ    K0, (R12)

// func narrowLanesAVX512(sc *laneTile, tile *NarrowChunk, spans, x, i int, low *uint64, lm, s uint64, lb int)
//
// The tile's next tile is, in the engine's arena and token plane, as
// far past this one as its chunks are spaced: R11 and R14 extrapolate
// that distance from the first two chunks (zero with one chunk), and
// every block prefetches its counterpart there, so the next call's
// stage 1 reads L2. A tile laid out otherwise only wastes the hints.
TEXT ·narrowLanesAVX512(SB), NOSPLIT, $0-72
	NARROWARGS
	VPBROADCASTQ lm+48(FP), Z8
	VMOVQ        s+56(FP), X9
	XORQ         R11, R11
	XORQ         R14, R14
	CMPQ         CX, $2
	JB           lanes512width
	MOVQ         CHUNK_SIZE+CHUNK_A(R8), R11
	SUBQ         CHUNK_A(R8), R11
	IMULQ        CX, R11
	MOVQ         CHUNK_SIZE+CHUNK_D(R8), R14
	SUBQ         CHUNK_D(R8), R14
	IMULQ        CX, R14

lanes512width:
	MOVQ lb+64(FP), AX
	CMPQ AX, $4
	JEQ  lanes512w4

lanes512w8:
	NARROWSPAN
	PREFETCHAHEAD8
	NARROWBLOCK512(LD8Z, 64)
	NARROWNEXT
	JNZ lanes512w8
	VZEROUPPER
	RET

lanes512w4:
	NARROWSPAN
	PREFETCHAHEAD4
	NARROWBLOCK512(LD4Z, 32)
	NARROWNEXT
	JNZ lanes512w4
	VZEROUPPER
	RET

// The filters visit the consecutive scratch blocks R11 … of spans
// chunks (descriptor R12, count CX) at one block position, whose rows
// are read from byte offset R9, and each chunk's comparand headers (DX
// up to AX). A block's lanes sit in registers and, in the AVX2 filter,
// every comparand row folds lanes XOR row into a lane-wise unsigned
// minimum, which starts at all ones, so a chunk with no comparands
// flags nothing. A zero lane of the minimum is a lane some comparand
// equals; the block's flags word is their mask ANDed with its guard
// word. The ZMM filter splits that work across the ports (below).

// FILTERROWS points DX at the first comparand header of the chunk at
// R12 and AX past its last, and jumps to done when there is none.
#define FILTERROWS(done) \
	MOVQ CHUNK_TOP(R12), DX;   \
	MOVQ CHUNK_TOP+8(R12), AX; \
	LEAQ (AX)(AX*2), AX;       \
	LEAQ (DX)(AX*8), AX;       \
	CMPQ DX, AX;               \
	JEQ  done

// FILTERSTORE ANDs the possible-hit mask in AX with block R11's guard
// word, stores it as the block's flags word, and steps to the next
// chunk and block.
#define FILTERSTORE \
	ANDQ TILE_GUARD(SI)(R11*8), AX; \
	MOVQ AX, TILE_FLAGS(SI)(R11*8); \
	INCQ R11;                       \
	ADDQ $CHUNK_SIZE, R12;          \
	DECQ CX

// func narrowFilterAVX2(sc *laneTile, tile *NarrowChunk, spans, x, off int)
TEXT ·narrowFilterAVX2(SB), NOSPLIT, $0-40
	FILTERARGS
	MOVQ     R8, R12
	VPCMPEQW Y15, Y15, Y15
	VPXOR    Y14, Y14, Y14

filteravx2span:
	MOVQ    R11, DI
	SHLQ    $7, DI
	VMOVDQU (SI)(DI*1), Y0
	VMOVDQU 32(SI)(DI*1), Y1
	VMOVDQU 64(SI)(DI*1), Y2
	VMOVDQU 96(SI)(DI*1), Y3
	VMOVDQA Y15, Y4
	VMOVDQA Y15, Y5
	VMOVDQA Y15, Y6
	VMOVDQA Y15, Y7
	FILTERROWS(filteravx2mask)

filteravx2row:
	MOVQ    (DX), BX
	VPXOR   (BX)(R9*1), Y0, Y8
	VPMINUW Y8, Y4, Y4
	VPXOR   32(BX)(R9*1), Y1, Y9
	VPMINUW Y9, Y5, Y5
	VPXOR   64(BX)(R9*1), Y2, Y8
	VPMINUW Y8, Y6, Y6
	VPXOR   96(BX)(R9*1), Y3, Y9
	VPMINUW Y9, Y7, Y7
	ADDQ    $24, DX
	CMPQ    DX, AX
	JNE     filteravx2row

	// Zero lanes to a 64-bit mask: word compares, signed-saturating
	// byte packs (-1 packs to -1) and a qword permute to undo the
	// packs' lane interleave, then VPMOVMSKB, 32 bits per half.
filteravx2mask:
	VPCMPEQW  Y14, Y4, Y4
	VPCMPEQW  Y14, Y5, Y5
	VPACKSSWB Y5, Y4, Y4
	VPERMQ    $0xD8, Y4, Y4
	VPMOVMSKB Y4, AX
	VPCMPEQW  Y14, Y6, Y6
	VPCMPEQW  Y14, Y7, Y7
	VPACKSSWB Y7, Y6, Y6
	VPERMQ    $0xD8, Y6, Y6
	VPMOVMSKB Y6, DX
	SHLQ      $32, DX
	ORQ       DX, AX
	FILTERSTORE
	JNZ       filteravx2span
	VZEROUPPER
	RET

// FILTERMASK512 leaves in AX the possible-hit lanes of one ZMM filter
// block: not every A row differs (klo, first half; khi, second) or
// some B row's XOR minimum is zero (zlo, zhi). K3 and K4 are scratch.
#define FILTERMASK512(zlo, zhi, klo, khi) \
	VPTESTNMW zlo, zlo, K3;   \
	VPTESTNMW zhi, zhi, K4;   \
	KANDND    klo, K3, klo;   \
	KANDND    khi, K4, khi;   \
	KUNPCKDQ  klo, khi, klo;  \
	KMOVQ     klo, AX;        \
	NOTQ      AX

// FILTERPAIR512 folds the row pair A (ra, rah: the halves of row A, in
// registers or memory) and B (rb, rbh) into the block with lanes zl,
// zh: opmasks kl (A, first half) and kh (B, second half), minima mh
// (A, second half) and ml (B, first half); t1 and t2 are scratch.
#define FILTERPAIR512(ra, rah, rb, rbh, zl, zh, kl, kh, ml, mh, t1, t2) \
	VPCMPUW $4, ra, zl, kl, kl;   \
	VPXORQ  rah, zh, t1;          \
	VPMINUW t1, mh, mh;           \
	VPXORQ  rb, zl, t2;           \
	VPMINUW t2, ml, ml;           \
	VPCMPUW $4, rbh, zh, kh, kh

// FILTERODD512 folds a last, unpaired row A (ra, rah) into a block.
#define FILTERODD512(ra, rah, zl, zh, kl, mh, t1) \
	VPCMPUW $4, ra, zl, kl, kl; \
	VPXORQ  rah, zh, t1;        \
	VPMINUW t1, mh, mh

// func narrowFilterAVX512(sc *laneTile, tile *NarrowChunk, spans, x, off int)
//
// The ZMM filter splits each pair of comparand rows A, B across the
// ports: A's first half and B's second are compared into opmasks that
// accumulate "every row so far differs" (VPCMPUW not-equal under
// itself as write mask), their other halves fold XOR into the
// lane-wise minimum, so a row costs three vector ops, not four. A lane
// is a possible hit iff its opmask bit is clear or its minimum is zero.
// An odd last row is an A row. Two neighbouring chunks on the same
// comparand rows (one phase) share each row load: their blocks are
// filtered together.
TEXT ·narrowFilterAVX512(SB), NOSPLIT, $0-40
	FILTERARGS
	MOVQ       R8, R12
	VPTERNLOGD $0xFF, Z31, Z31, Z31

filter512span:
	MOVQ      R11, DI
	SHLQ      $7, DI
	VMOVDQU64 (SI)(DI*1), Z0
	VMOVDQU64 64(SI)(DI*1), Z1
	VMOVDQA64 Z31, Z2
	VMOVDQA64 Z31, Z3
	KXNORQ    K1, K1, K1
	KXNORQ    K2, K2, K2
	CMPQ      CX, $2
	JB        filter512one
	MOVQ      CHUNK_TOP(R12), AX
	CMPQ      AX, CHUNK_TOP+CHUNK_SIZE(R12)
	JNE       filter512one
	MOVQ      CHUNK_TOP+8(R12), AX
	CMPQ      AX, CHUNK_TOP+CHUNK_SIZE+8(R12)
	JNE       filter512one

	// Two blocks: the second's lanes in Z6, Z7, its state in K5, K6,
	// Z8, Z9; the row pair in Z10–Z13.
	VMOVDQU64 128(SI)(DI*1), Z6
	VMOVDQU64 192(SI)(DI*1), Z7
	VMOVDQA64 Z31, Z8
	VMOVDQA64 Z31, Z9
	KXNORQ    K5, K5, K5
	KXNORQ    K6, K6, K6
	FILTERROWS(filter512twomask)
	LEAQ      -24(AX), R10
	CMPQ      DX, R10
	JAE       filter512twoodd

filter512tworow:
	MOVQ      (DX), BX
	MOVQ      24(DX), R13
	VMOVDQU64 (BX)(R9*1), Z10
	VMOVDQU64 64(BX)(R9*1), Z11
	VMOVDQU64 (R13)(R9*1), Z12
	VMOVDQU64 64(R13)(R9*1), Z13
	FILTERPAIR512(Z10, Z11, Z12, Z13, Z0, Z1, K1, K2, Z2, Z3, Z4, Z5)
	FILTERPAIR512(Z10, Z11, Z12, Z13, Z6, Z7, K5, K6, Z8, Z9, Z14, Z15)
	ADDQ      $48, DX
	CMPQ      DX, R10
	JB        filter512tworow

filter512twoodd:
	CMPQ      DX, AX
	JEQ       filter512twomask
	MOVQ      (DX), BX
	VMOVDQU64 (BX)(R9*1), Z10
	VMOVDQU64 64(BX)(R9*1), Z11
	FILTERODD512(Z10, Z11, Z0, Z1, K1, Z3, Z4)
	FILTERODD512(Z10, Z11, Z6, Z7, K5, Z9, Z14)

filter512twomask:
	FILTERMASK512(Z2, Z3, K1, K2)
	FILTERSTORE
	FILTERMASK512(Z8, Z9, K5, K6)
	FILTERSTORE
	JNZ       filter512span
	VZEROUPPER
	RET

filter512one:
	FILTERROWS(filter512mask)
	LEAQ      -24(AX), R10
	CMPQ      DX, R10
	JAE       filter512odd

filter512pair:
	MOVQ    (DX), BX
	MOVQ    24(DX), R13
	FILTERPAIR512((BX)(R9*1), 64(BX)(R9*1), (R13)(R9*1), 64(R13)(R9*1), Z0, Z1, K1, K2, Z2, Z3, Z4, Z5)
	ADDQ    $48, DX
	CMPQ    DX, R10
	JB      filter512pair

filter512odd:
	CMPQ    DX, AX
	JEQ     filter512mask
	MOVQ    (DX), BX
	FILTERODD512((BX)(R9*1), 64(BX)(R9*1), Z0, Z1, K1, Z3, Z4)

filter512mask:
	FILTERMASK512(Z2, Z3, K1, K2)
	FILTERSTORE
	JNZ     filter512span
	VZEROUPPER
	RET

// func narrowHitRowsAVX512(sc *laneTile, tile *NarrowChunk, spans, x, off int)
//
// The hit-row pass runs where the filter ran, one block position of
// spans chunks, so the comparand slices are still in L1: for every
// flagged block it compares the first 64 comparand rows under the
// flags word (K3, K4) and sets bit v (R13) of the block's rows word
// (R10) iff row v hits — KORTESTD, then through R14 with CMOV, so the
// only row-to-row dependence on R10 is one OR; an unflagged block gets
// 0.
TEXT ·narrowHitRowsAVX512(SB), NOSPLIT, $0-40
	FILTERARGS
	MOVQ R8, R12

hitrows512span:
	XORQ      R10, R10
	MOVQ      TILE_FLAGS(SI)(R11*8), AX
	TESTQ     AX, AX
	JZ        hitrows512store
	KMOVQ     AX, K3
	KSHIFTRQ  $32, K3, K4
	MOVQ      R11, DI
	SHLQ      $7, DI
	VMOVDQU64 (SI)(DI*1), Z0
	VMOVDQU64 64(SI)(DI*1), Z1
	FILTERROWS(hitrows512store)
	LEAQ      1536(DX), BX
	CMPQ      AX, BX
	CMOVQHI   BX, AX
	MOVQ      $1, R13

hitrows512row:
	MOVQ     (DX), BX
	VPCMPEQW (BX)(R9*1), Z0, K3, K1
	VPCMPEQW 64(BX)(R9*1), Z1, K4, K2
	XORL     R14, R14
	KORTESTD K1, K2
	CMOVQNE  R13, R14
	ORQ      R14, R10
	SHLQ     $1, R13
	ADDQ     $24, DX
	CMPQ     DX, AX
	JNE      hitrows512row

hitrows512store:
	MOVQ R10, TILE_ROWS(SI)(R11*8)
	INCQ R11
	ADDQ $CHUNK_SIZE, R12
	DECQ CX
	JNZ  hitrows512span
	VZEROUPPER
	RET

// The exact compares visit one chunk's nb scratch blocks R10,
// R10+step, … (row offset R9, record word R12, blocks left R11) and
// skip those whose flags word is zero. A flagged block's lanes sit in
// registers while its comparand rows (R13 of them, headers from R8;
// row index CX) are compared and their records written: every row on
// AVX2, with the flags word ANDed in from memory; on AVX-512 the rows
// its rows word marks, under the flags word as write mask, then every
// row past the 64th. AX holds the verdict word and DX is scratch.

// HITRECORD stores the HitWord {R12, CX, AX} at DI and moves DI past it
// iff AX != 0, without branching: NEGQ sets the carry iff AX != 0.
#define HITRECORD \
	MOVL R12, (DI); \
	MOVL CX, 4(DI); \
	MOVQ AX, 8(DI); \
	NEGQ AX;        \
	SBBQ DX, DX;    \
	ANDQ $16, DX;   \
	ADDQ DX, DI

// EXACTNEXT steps to the next scratch block and counts it off R11.
#define EXACTNEXT \
	ADDQ $128, R9;  \
	INCQ R12;       \
	ADDQ R14, R10;  \
	DECQ R11

// func narrowExactAVX2(out *HitWord, sc *laneTile, x, step, nb int, top *[]uint16, nrhs, off int, word uint64) int
TEXT ·narrowExactAVX2(SB), NOSPLIT, $0-80
	EXACTARGS

exactavx2block:
	MOVQ    TILE_FLAGS(SI)(R10*8), AX
	TESTQ   AX, AX
	JZ      exactavx2next
	MOVQ    R10, DX
	SHLQ    $7, DX
	VMOVDQU (SI)(DX*1), Y8
	VMOVDQU 32(SI)(DX*1), Y9
	VMOVDQU 64(SI)(DX*1), Y10
	VMOVDQU 96(SI)(DX*1), Y11
	MOVQ    R8, BX
	XORQ    CX, CX

	// Per comparand: 4 × VPCMPEQW (16 lanes each), packed to 64
	// verdict bits as in the AVX2 filter.
exactavx2row:
	MOVQ      (BX), DX
	VPCMPEQW  (DX)(R9*1), Y8, Y6
	VPCMPEQW  32(DX)(R9*1), Y9, Y7
	VPACKSSWB Y7, Y6, Y6
	VPERMQ    $0xD8, Y6, Y6
	VPMOVMSKB Y6, AX
	VPCMPEQW  64(DX)(R9*1), Y10, Y6
	VPCMPEQW  96(DX)(R9*1), Y11, Y7
	VPACKSSWB Y7, Y6, Y6
	VPERMQ    $0xD8, Y6, Y6
	VPMOVMSKB Y6, DX
	SHLQ      $32, DX
	ORQ       DX, AX
	ANDQ      TILE_FLAGS(SI)(R10*8), AX
	HITRECORD
	ADDQ      $24, BX
	INCQ      CX
	CMPQ      CX, R13
	JLT       exactavx2row

exactavx2next:
	EXACTNEXT
	JNZ exactavx2block
	VZEROUPPER
	SUBQ out+0(FP), DI // the records kept
	SHRQ $4, DI
	MOVQ DI, ret+72(FP)
	RET

// func narrowExactAVX512(out *HitWord, sc *laneTile, x, step, nb int, top *[]uint16, nrhs, off int, word uint64) int
TEXT ·narrowExactAVX512(SB), NOSPLIT, $0-80
	EXACTARGS

exact512block:
	MOVQ      TILE_FLAGS(SI)(R10*8), AX
	TESTQ     AX, AX
	JZ        exact512next
	KMOVQ     AX, K3
	MOVQ      R10, DX
	SHLQ      $7, DX
	VMOVDQU64 (SI)(DX*1), Z0
	VMOVDQU64 64(SI)(DX*1), Z1
	KSHIFTRQ  $32, K3, K4
	MOVQ      TILE_ROWS(SI)(R10*8), BX
	TESTQ     BX, BX
	JZ        exact512wide

	// Per comparand the rows word marks, in ascending order (BSF, then
	// clear the lowest bit): 2 × VPCMPEQW (32 lanes each) under the
	// flags word's halves as write masks, into one 64-bit mask. Walking
	// the marks reveals only which (word, comparand) records are
	// emitted.
exact512mark:
	BSFQ     BX, CX
	LEAQ     -1(BX), DX
	ANDQ     DX, BX
	LEAQ     (CX)(CX*2), DX
	MOVQ     (R8)(DX*8), DX
	VPCMPEQW (DX)(R9*1), Z0, K3, K1
	VPCMPEQW 64(DX)(R9*1), Z1, K4, K2
	KUNPCKDQ K1, K2, K1
	KMOVQ    K1, AX
	HITRECORD
	TESTQ    BX, BX
	JNZ      exact512mark

	// Comparands past the 64th have no mark: compare them all.
exact512wide:
	MOVQ $64, CX
	CMPQ CX, R13
	JGE  exact512next

exact512row:
	LEAQ     (CX)(CX*2), DX
	MOVQ     (R8)(DX*8), DX
	VPCMPEQW (DX)(R9*1), Z0, K3, K1
	VPCMPEQW 64(DX)(R9*1), Z1, K4, K2
	KUNPCKDQ K1, K2, K1
	KMOVQ    K1, AX
	HITRECORD
	INCQ     CX
	CMPQ     CX, R13
	JLT      exact512row

exact512next:
	EXACTNEXT
	JNZ exact512block
	VZEROUPPER
	SUBQ out+0(FP), DI // the records kept
	SHRQ $4, DI
	MOVQ DI, ret+72(FP)
	RET
