//go:build amd64

#include "textflag.h"

// func cpuHasAVX() bool
//
// CPUID leaf 1: ECX bit 28 = AVX, bit 27 = OSXSAVE; then XGETBV(0) must
// show XMM+YMM state enabled (XCR0 bits 1 and 2).
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, BX
	ANDL $0x18000000, BX
	CMPL BX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET
noavx:
	MOVB $0, ret+0(FP)
	RET

// STEP2 adds x[i]*wt[i*out+o..] to both rows' accumulators from one load
// of the weight vector; STEP1 is the single-row form. LEAKY scales the
// negative lanes of acc by the slope; LEAKY1 is its scalar form.
#define STEP2(off, accA, accB) \
	VMOVUPD off(R12), Y10; \
	VMULPD Y10, Y8, Y11; \
	VADDPD Y11, accA, accA; \
	VMULPD Y10, Y9, Y12; \
	VADDPD Y12, accB, accB

#define STEP1(off, acc) \
	VMULPD off(R12), Y8, Y11; \
	VADDPD Y11, acc, acc

#define LEAKY(acc) \
	VMULPD Y14, acc, Y10; \
	VCMPPD $1, Y15, acc, Y11; \
	VBLENDVPD Y11, Y10, acc, acc

#define LEAKY1(acc) \
	VMULSD X14, acc, X10; \
	VCMPSD $1, X15, acc, X11; \
	VBLENDVPD X11, X10, acc, acc

// func affineLeakyAVX(y, x, wt, b *float64, in, out, rows, yStride, xStride int, slope float64)
//
// For each of rows >= 1 rows, the next one yStride / xStride doubles
// after the last:
//
//	v = b[o] + sum_i wt[i*out+o] * x[i];  y[o] = v < 0 ? slope*v : v
//
// for o in [0, out). wt is the transposed weight matrix (in rows of out
// contiguous doubles), so outputs sit in adjacent lanes and every load is
// unit-stride. i advances sequentially and multiply and add stay separate
// instructions, keeping each output's accumulation order and rounding
// identical to the scalar kernel. LeakyReLU is applied to the accumulators
// before the store by compare-and-blend (LEAKY), so no output element is
// touched again and the sign of a pre-activation costs no branch; NaN and
// -0 compare not-less and pass through, and slope 1 is "no activation"
// because 1*v is v.
//
// Rows are taken in pairs (pair:) with a single-row pass for an odd last
// row (one:). A pair loads each weight vector once for both rows (STEP2)
// and doubles the independent FP-add dependency chains per output block:
// blocks of 16 outputs (2x4 YMM accumulators), then 8, 4, and a scalar
// tail. in and out must be at least 1.
//
// Y8/Y9 hold the broadcast x[i] of the two rows, Y10-Y12 are temporaries,
// Y14 is the broadcast slope and Y15 zero.
TEXT ·affineLeakyAVX(SB), NOSPLIT, $0-80
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ wt+16(FP), DX
	MOVQ b+24(FP), CX
	MOVQ in+32(FP), R8
	MOVQ out+40(FP), R9
	VBROADCASTSD slope+72(FP), Y14
	VXORPD Y15, Y15, Y15
	MOVQ R9, R13
	SHLQ $3, R13              // R13 = out*8 bytes = wt row stride
	SHLQ $3, yStride+56(FP)   // row strides in bytes, kept in the frame
	SHLQ $3, xStride+64(FP)

pair:
	CMPQ rows+48(FP), $2
	JLT  one
	MOVQ SI, R14
	ADDQ xStride+64(FP), R14  // R14 = x of the pair's second row
	XORQ R10, R10             // R10 = o

p16:
	MOVQ R9, AX
	SUBQ R10, AX
	CMPQ AX, $16
	JLT  p8
	LEAQ (CX)(R10*8), BX
	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	VMOVAPD Y0, Y4
	VMOVAPD Y1, Y5
	VMOVAPD Y2, Y6
	VMOVAPD Y3, Y7
	LEAQ (DX)(R10*8), R12     // &wt[o]
	XORQ R11, R11             // R11 = i

pi16:
	VBROADCASTSD (SI)(R11*8), Y8
	VBROADCASTSD (R14)(R11*8), Y9
	STEP2(0, Y0, Y4)
	STEP2(32, Y1, Y5)
	STEP2(64, Y2, Y6)
	STEP2(96, Y3, Y7)
	ADDQ R13, R12
	INCQ R11
	CMPQ R11, R8
	JLT  pi16
	LEAKY(Y0)
	LEAKY(Y1)
	LEAKY(Y2)
	LEAKY(Y3)
	LEAKY(Y4)
	LEAKY(Y5)
	LEAKY(Y6)
	LEAKY(Y7)
	LEAQ (DI)(R10*8), BX
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, 64(BX)
	VMOVUPD Y3, 96(BX)
	ADDQ yStride+56(FP), BX
	VMOVUPD Y4, (BX)
	VMOVUPD Y5, 32(BX)
	VMOVUPD Y6, 64(BX)
	VMOVUPD Y7, 96(BX)
	ADDQ $16, R10
	JMP  p16

p8:
	MOVQ R9, AX
	SUBQ R10, AX
	CMPQ AX, $8
	JLT  p4
	LEAQ (CX)(R10*8), BX
	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVAPD Y0, Y4
	VMOVAPD Y1, Y5
	LEAQ (DX)(R10*8), R12
	XORQ R11, R11

pi8:
	VBROADCASTSD (SI)(R11*8), Y8
	VBROADCASTSD (R14)(R11*8), Y9
	STEP2(0, Y0, Y4)
	STEP2(32, Y1, Y5)
	ADDQ R13, R12
	INCQ R11
	CMPQ R11, R8
	JLT  pi8
	LEAKY(Y0)
	LEAKY(Y1)
	LEAKY(Y4)
	LEAKY(Y5)
	LEAQ (DI)(R10*8), BX
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, 32(BX)
	ADDQ yStride+56(FP), BX
	VMOVUPD Y4, (BX)
	VMOVUPD Y5, 32(BX)
	ADDQ $8, R10
	JMP  p8

p4:
	MOVQ R9, AX
	SUBQ R10, AX
	CMPQ AX, $4
	JLT  ptail
	VMOVUPD (CX)(R10*8), Y0
	VMOVAPD Y0, Y4
	LEAQ (DX)(R10*8), R12
	XORQ R11, R11

pi4:
	VBROADCASTSD (SI)(R11*8), Y8
	VBROADCASTSD (R14)(R11*8), Y9
	STEP2(0, Y0, Y4)
	ADDQ R13, R12
	INCQ R11
	CMPQ R11, R8
	JLT  pi4
	LEAKY(Y0)
	LEAKY(Y4)
	LEAQ (DI)(R10*8), BX
	VMOVUPD Y0, (BX)
	ADDQ yStride+56(FP), BX
	VMOVUPD Y4, (BX)
	ADDQ $4, R10
	JMP  p4

ptail:
	CMPQ R10, R9
	JGE  pnext
	VMOVSD (CX)(R10*8), X0
	VMOVAPD X0, X4
	LEAQ (DX)(R10*8), R12
	XORQ R11, R11

pitail:
	VMOVSD (SI)(R11*8), X8
	VMOVSD (R14)(R11*8), X9
	VMOVSD (R12), X10
	VMULSD X10, X8, X11
	VADDSD X11, X0, X0
	VMULSD X10, X9, X12
	VADDSD X12, X4, X4
	ADDQ R13, R12
	INCQ R11
	CMPQ R11, R8
	JLT  pitail
	LEAKY1(X0)
	LEAKY1(X4)
	LEAQ (DI)(R10*8), BX
	VMOVSD X0, (BX)
	ADDQ yStride+56(FP), BX
	VMOVSD X4, (BX)
	INCQ R10
	JMP  ptail

pnext:
	MOVQ yStride+56(FP), AX
	LEAQ (DI)(AX*2), DI
	MOVQ xStride+64(FP), AX
	LEAQ (SI)(AX*2), SI
	SUBQ $2, rows+48(FP)
	JMP  pair

one:
	CMPQ rows+48(FP), $1
	JLT  ret
	XORQ R10, R10

o16:
	MOVQ R9, AX
	SUBQ R10, AX
	CMPQ AX, $16
	JLT  o8
	LEAQ (CX)(R10*8), BX
	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	LEAQ (DX)(R10*8), R12
	XORQ R11, R11

oi16:
	VBROADCASTSD (SI)(R11*8), Y8
	STEP1(0, Y0)
	STEP1(32, Y1)
	STEP1(64, Y2)
	STEP1(96, Y3)
	ADDQ R13, R12
	INCQ R11
	CMPQ R11, R8
	JLT  oi16
	LEAKY(Y0)
	LEAKY(Y1)
	LEAKY(Y2)
	LEAKY(Y3)
	LEAQ (DI)(R10*8), BX
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, 64(BX)
	VMOVUPD Y3, 96(BX)
	ADDQ $16, R10
	JMP  o16

o8:
	MOVQ R9, AX
	SUBQ R10, AX
	CMPQ AX, $8
	JLT  o4
	LEAQ (CX)(R10*8), BX
	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y1
	LEAQ (DX)(R10*8), R12
	XORQ R11, R11

oi8:
	VBROADCASTSD (SI)(R11*8), Y8
	STEP1(0, Y0)
	STEP1(32, Y1)
	ADDQ R13, R12
	INCQ R11
	CMPQ R11, R8
	JLT  oi8
	LEAKY(Y0)
	LEAKY(Y1)
	LEAQ (DI)(R10*8), BX
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, 32(BX)
	ADDQ $8, R10
	JMP  o8

o4:
	MOVQ R9, AX
	SUBQ R10, AX
	CMPQ AX, $4
	JLT  otail
	VMOVUPD (CX)(R10*8), Y0
	LEAQ (DX)(R10*8), R12
	XORQ R11, R11

oi4:
	VBROADCASTSD (SI)(R11*8), Y8
	STEP1(0, Y0)
	ADDQ R13, R12
	INCQ R11
	CMPQ R11, R8
	JLT  oi4
	LEAKY(Y0)
	VMOVUPD Y0, (DI)(R10*8)
	ADDQ $4, R10
	JMP  o4

otail:
	CMPQ R10, R9
	JGE  ret
	VMOVSD (CX)(R10*8), X0
	LEAQ (DX)(R10*8), R12
	XORQ R11, R11

oitail:
	VMOVSD (SI)(R11*8), X8
	VMULSD (R12), X8, X11
	VADDSD X11, X0, X0
	ADDQ R13, R12
	INCQ R11
	CMPQ R11, R8
	JLT  oitail
	LEAKY1(X0)
	VMOVSD X0, (DI)(R10*8)
	INCQ R10
	JMP  otail

ret:
	VZEROUPPER
	RET

// func cpuHasAVX512() bool
//
// CPUID leaf 7 (when the CPU has it): EBX bit 16 = AVX512F; then
// XGETBV(0) must show the opmask and both ZMM state components enabled
// besides XMM and YMM (XCR0 bits 1, 2 and 5-7). Called only after
// cpuHasAVX has seen OSXSAVE, which XGETBV needs.
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no512
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $16, BX
	JCC  no512
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  no512
	MOVB $1, ret+0(FP)
	RET
no512:
	MOVB $0, ret+0(FP)
	RET

// ZSTEP2 adds x[i]*wt[i*out+o..] to both rows' ZMM accumulators from one
// load of the weight vector; ZSTEP2M is its form for a block's last
// vector, whose load reads only the K1 lanes (the others read zero and
// never fault). ZSTEP1 and ZSTEP1M are the single-row forms. ZLEAKY
// scales the negative lanes of acc by the slope: a compare into K2 and a
// multiply merged under it.
#define ZSTEP2(off, accA, accB) \
	VMOVUPD off(R12), Z10; \
	VMULPD Z10, Z8, Z11; \
	VADDPD Z11, accA, accA; \
	VMULPD Z10, Z9, Z12; \
	VADDPD Z12, accB, accB

#define ZSTEP2M(off, accA, accB) \
	VMOVUPD.Z off(R12), K1, Z10; \
	VMULPD Z10, Z8, Z11; \
	VADDPD Z11, accA, accA; \
	VMULPD Z10, Z9, Z12; \
	VADDPD Z12, accB, accB

#define ZSTEP1(off, acc) \
	VMULPD off(R12), Z8, Z11; \
	VADDPD Z11, acc, acc

#define ZSTEP1M(off, acc) \
	VMULPD.Z off(R12), Z8, K1, Z11; \
	VADDPD Z11, acc, acc

#define ZLEAKY(acc) \
	VCMPPD $1, Z15, acc, K2; \
	VMULPD Z14, acc, K2, acc

// ZBLOCK opens the output block at o = R10, or jumps to done when no
// output is left. A block is up to four vectors (32 outputs): K1 gets
// the lane mask of its last vector — all eight lanes unless the block
// ends inside that vector — and it jumps to v4, v3 or v2 by the block's
// vector count, falling through for one vector. AX and CX are scratch.
#define ZBLOCK(done, v4, v3, v2) \
	MOVQ R9, CX; \
	SUBQ R10, CX; \
	JLE  done; \
	MOVQ $32, AX; \
	CMPQ CX, AX; \
	CMOVQGT AX, CX; \
	NEGL CX; \
	ANDL $7, CX; \
	MOVL $0xff, AX; \
	SHRL CX, AX; \
	KMOVW AX, K1; \
	MOVQ R9, AX; \
	SUBQ R10, AX; \
	CMPQ AX, $24; \
	JGT  v4; \
	CMPQ AX, $16; \
	JGT  v3; \
	CMPQ AX, $8; \
	JGT  v2

// func affineLeakyAVX512(y, x, wt, b *float64, in, out, rows, yStride, xStride int, slope float64)
//
// affineLeakyAVX on 512-bit vectors: the same contract, arguments and
// column-major weights, eight outputs to a ZMM vector. Per row pair (pz)
// or odd last row (oz) the outputs go in blocks of up to four vectors,
// 32 outputs (ZBLOCK): the bias is loaded into the accumulators, then
// for i = 0, 1, ..., in-1 each accumulator gets x[i]*wt[i*out+o..] by a
// separate VMULPD and VADDPD, so every output sums bias first, then
// inputs in index order, rounding each product and each sum exactly as
// the scalar loop does; there is no fused multiply-add. The block's last
// vector is masked by K1 on the bias load, every weight load and the
// store, so a block ending inside a vector needs no scalar tail, and
// lanes past out are neither read nor written. LeakyReLU is VCMPPD into
// K2 and a VMULPD merged under it: NaN and -0 compare not-less and pass
// through, and slope 1 is no activation.
//
// Z0-Z3 and Z4-Z7 are the two rows' accumulators, Z8/Z9 the broadcast
// x[i] of the two rows, Z10-Z12 temporaries, Z14 the broadcast slope and
// Z15 zero; R12 walks the weight rows of the block.
TEXT ·affineLeakyAVX512(SB), NOSPLIT, $0-80
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ wt+16(FP), DX
	MOVQ b+24(FP), BX
	MOVQ in+32(FP), R8
	MOVQ out+40(FP), R9
	VBROADCASTSD slope+72(FP), Z14
	VPXORQ Z15, Z15, Z15
	MOVQ R9, R13
	SHLQ $3, R13              // R13 = out*8 bytes = wt row stride
	SHLQ $3, yStride+56(FP)   // row strides in bytes, kept in the frame
	SHLQ $3, xStride+64(FP)

pz:
	CMPQ rows+48(FP), $2
	JLT  oz
	MOVQ SI, R14
	ADDQ xStride+64(FP), R14  // R14 = x of the pair's second row
	XORQ R10, R10             // R10 = o

pzblock:
	ZBLOCK(pznext, pz4, pz3, pz2)
	LEAQ (BX)(R10*8), AX
	VMOVUPD.Z (AX), K1, Z0
	VMOVAPD Z0, Z4
	LEAQ (DX)(R10*8), R12
	XORQ R11, R11

pzi1:
	VBROADCASTSD (SI)(R11*8), Z8
	VBROADCASTSD (R14)(R11*8), Z9
	ZSTEP2M(0, Z0, Z4)
	ADDQ R13, R12
	INCQ R11
	CMPQ R11, R8
	JLT  pzi1
	ZLEAKY(Z0)
	ZLEAKY(Z4)
	LEAQ (DI)(R10*8), AX
	VMOVUPD Z0, K1, (AX)
	ADDQ yStride+56(FP), AX
	VMOVUPD Z4, K1, (AX)
	ADDQ $8, R10
	JMP  pzblock

pz2:
	LEAQ (BX)(R10*8), AX
	VMOVUPD (AX), Z0
	VMOVUPD.Z 64(AX), K1, Z1
	VMOVAPD Z0, Z4
	VMOVAPD Z1, Z5
	LEAQ (DX)(R10*8), R12
	XORQ R11, R11

pzi2:
	VBROADCASTSD (SI)(R11*8), Z8
	VBROADCASTSD (R14)(R11*8), Z9
	ZSTEP2(0, Z0, Z4)
	ZSTEP2M(64, Z1, Z5)
	ADDQ R13, R12
	INCQ R11
	CMPQ R11, R8
	JLT  pzi2
	ZLEAKY(Z0)
	ZLEAKY(Z1)
	ZLEAKY(Z4)
	ZLEAKY(Z5)
	LEAQ (DI)(R10*8), AX
	VMOVUPD Z0, (AX)
	VMOVUPD Z1, K1, 64(AX)
	ADDQ yStride+56(FP), AX
	VMOVUPD Z4, (AX)
	VMOVUPD Z5, K1, 64(AX)
	ADDQ $16, R10
	JMP  pzblock

pz3:
	LEAQ (BX)(R10*8), AX
	VMOVUPD (AX), Z0
	VMOVUPD 64(AX), Z1
	VMOVUPD.Z 128(AX), K1, Z2
	VMOVAPD Z0, Z4
	VMOVAPD Z1, Z5
	VMOVAPD Z2, Z6
	LEAQ (DX)(R10*8), R12
	XORQ R11, R11

pzi3:
	VBROADCASTSD (SI)(R11*8), Z8
	VBROADCASTSD (R14)(R11*8), Z9
	ZSTEP2(0, Z0, Z4)
	ZSTEP2(64, Z1, Z5)
	ZSTEP2M(128, Z2, Z6)
	ADDQ R13, R12
	INCQ R11
	CMPQ R11, R8
	JLT  pzi3
	ZLEAKY(Z0)
	ZLEAKY(Z1)
	ZLEAKY(Z2)
	ZLEAKY(Z4)
	ZLEAKY(Z5)
	ZLEAKY(Z6)
	LEAQ (DI)(R10*8), AX
	VMOVUPD Z0, (AX)
	VMOVUPD Z1, 64(AX)
	VMOVUPD Z2, K1, 128(AX)
	ADDQ yStride+56(FP), AX
	VMOVUPD Z4, (AX)
	VMOVUPD Z5, 64(AX)
	VMOVUPD Z6, K1, 128(AX)
	ADDQ $24, R10
	JMP  pzblock

pz4:
	LEAQ (BX)(R10*8), AX
	VMOVUPD (AX), Z0
	VMOVUPD 64(AX), Z1
	VMOVUPD 128(AX), Z2
	VMOVUPD.Z 192(AX), K1, Z3
	VMOVAPD Z0, Z4
	VMOVAPD Z1, Z5
	VMOVAPD Z2, Z6
	VMOVAPD Z3, Z7
	LEAQ (DX)(R10*8), R12
	XORQ R11, R11

pzi4:
	VBROADCASTSD (SI)(R11*8), Z8
	VBROADCASTSD (R14)(R11*8), Z9
	ZSTEP2(0, Z0, Z4)
	ZSTEP2(64, Z1, Z5)
	ZSTEP2(128, Z2, Z6)
	ZSTEP2M(192, Z3, Z7)
	ADDQ R13, R12
	INCQ R11
	CMPQ R11, R8
	JLT  pzi4
	ZLEAKY(Z0)
	ZLEAKY(Z1)
	ZLEAKY(Z2)
	ZLEAKY(Z3)
	ZLEAKY(Z4)
	ZLEAKY(Z5)
	ZLEAKY(Z6)
	ZLEAKY(Z7)
	LEAQ (DI)(R10*8), AX
	VMOVUPD Z0, (AX)
	VMOVUPD Z1, 64(AX)
	VMOVUPD Z2, 128(AX)
	VMOVUPD Z3, K1, 192(AX)
	ADDQ yStride+56(FP), AX
	VMOVUPD Z4, (AX)
	VMOVUPD Z5, 64(AX)
	VMOVUPD Z6, 128(AX)
	VMOVUPD Z7, K1, 192(AX)
	ADDQ $32, R10
	JMP  pzblock

pznext:
	MOVQ yStride+56(FP), AX
	LEAQ (DI)(AX*2), DI
	MOVQ xStride+64(FP), AX
	LEAQ (SI)(AX*2), SI
	SUBQ $2, rows+48(FP)
	JMP  pz

oz:
	CMPQ rows+48(FP), $1
	JLT  zret
	XORQ R10, R10

ozblock:
	ZBLOCK(zret, oz4, oz3, oz2)
	VMOVUPD.Z (BX)(R10*8), K1, Z0
	LEAQ (DX)(R10*8), R12
	XORQ R11, R11

ozi1:
	VBROADCASTSD (SI)(R11*8), Z8
	ZSTEP1M(0, Z0)
	ADDQ R13, R12
	INCQ R11
	CMPQ R11, R8
	JLT  ozi1
	ZLEAKY(Z0)
	VMOVUPD Z0, K1, (DI)(R10*8)
	ADDQ $8, R10
	JMP  ozblock

oz2:
	LEAQ (BX)(R10*8), AX
	VMOVUPD (AX), Z0
	VMOVUPD.Z 64(AX), K1, Z1
	LEAQ (DX)(R10*8), R12
	XORQ R11, R11

ozi2:
	VBROADCASTSD (SI)(R11*8), Z8
	ZSTEP1(0, Z0)
	ZSTEP1M(64, Z1)
	ADDQ R13, R12
	INCQ R11
	CMPQ R11, R8
	JLT  ozi2
	ZLEAKY(Z0)
	ZLEAKY(Z1)
	LEAQ (DI)(R10*8), AX
	VMOVUPD Z0, (AX)
	VMOVUPD Z1, K1, 64(AX)
	ADDQ $16, R10
	JMP  ozblock

oz3:
	LEAQ (BX)(R10*8), AX
	VMOVUPD (AX), Z0
	VMOVUPD 64(AX), Z1
	VMOVUPD.Z 128(AX), K1, Z2
	LEAQ (DX)(R10*8), R12
	XORQ R11, R11

ozi3:
	VBROADCASTSD (SI)(R11*8), Z8
	ZSTEP1(0, Z0)
	ZSTEP1(64, Z1)
	ZSTEP1M(128, Z2)
	ADDQ R13, R12
	INCQ R11
	CMPQ R11, R8
	JLT  ozi3
	ZLEAKY(Z0)
	ZLEAKY(Z1)
	ZLEAKY(Z2)
	LEAQ (DI)(R10*8), AX
	VMOVUPD Z0, (AX)
	VMOVUPD Z1, 64(AX)
	VMOVUPD Z2, K1, 128(AX)
	ADDQ $24, R10
	JMP  ozblock

oz4:
	LEAQ (BX)(R10*8), AX
	VMOVUPD (AX), Z0
	VMOVUPD 64(AX), Z1
	VMOVUPD 128(AX), Z2
	VMOVUPD.Z 192(AX), K1, Z3
	LEAQ (DX)(R10*8), R12
	XORQ R11, R11

ozi4:
	VBROADCASTSD (SI)(R11*8), Z8
	ZSTEP1(0, Z0)
	ZSTEP1(64, Z1)
	ZSTEP1(128, Z2)
	ZSTEP1M(192, Z3)
	ADDQ R13, R12
	INCQ R11
	CMPQ R11, R8
	JLT  ozi4
	ZLEAKY(Z0)
	ZLEAKY(Z1)
	ZLEAKY(Z2)
	ZLEAKY(Z3)
	LEAQ (DI)(R10*8), AX
	VMOVUPD Z0, (AX)
	VMOVUPD Z1, 64(AX)
	VMOVUPD Z2, 128(AX)
	VMOVUPD Z3, K1, 192(AX)
	ADDQ $32, R10
	JMP  ozblock

zret:
	VZEROUPPER
	RET
