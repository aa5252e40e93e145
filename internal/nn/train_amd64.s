//go:build amd64

#include "textflag.h"

// Training kernels. Like the inference kernels in affine_amd64.s they use
// only VMULPD/VADDPD/VSUBPD/VDIVPD/VSQRTPD and their scalar forms — never
// a fused multiply-add — so every lane rounds exactly like the Go
// expression it replaces.

// func affineBackwardAVX(gw, gb, xg, w, x, dy, act, gf *float64, alpha float64, in, out int)
//
// A first pass over the out rows writes each row's effective gradient to
// gf — dy[o], times alpha when act[o] < 0, chosen by compare-and-blend so
// the sign of a LeakyReLU output costs no branch — and adds the non-zero
// ones to gb. Then input columns are taken in blocks of 16, 8, 4 and 1. A
// block keeps its x values (Y4-Y7) and its xg accumulators (Y0-Y3) in
// registers while o walks every row, so xg[i] still receives its
// contributions in o order; gw rows are read, added to and written back
// in place. DI and SI point at element (o, i) of gw and w: plain (reg)
// addresses keep every load-and-operate instruction one fused micro-op,
// which an indexed address would split.
//
// Go's gf == 0 skip is a test of the bits: shifting the sign out leaves
// zero for +0 and -0 only (a NaN is not skipped, as in Go). In the first
// pass the same test is VUCOMISD, where "JNE; JPS" is "not equal, or
// unordered".
//
// This is the backward of every layer on CPUs with AVX only, and of the
// layers narrower than eight inputs on AVX-512 CPUs: affineBackwardAVX512
// below is its ZMM form, which needs a vector's worth of columns.
TEXT ·affineBackwardAVX(SB), NOSPLIT, $0-88
	MOVQ gb+8(FP), DI
	MOVQ dy+40(FP), R10
	MOVQ act+48(FP), R11
	MOVQ gf+56(FP), AX
	VMOVSD alpha+64(FP), X14
	MOVQ in+72(FP), R8
	MOVQ out+80(FP), R9
	VXORPD X12, X12, X12
	XORQ BX, BX               // BX = o

pre:
	VMOVSD (R10)(BX*8), X13
	VMOVSD (R11)(BX*8), X9
	VMULSD X14, X13, X10      // dy*alpha
	VCMPSD $1, X12, X9, X9    // act < 0
	VBLENDVPD X9, X10, X13, X13
	VMOVSD X13, (AX)(BX*8)
	VUCOMISD X12, X13
	JNE  prebias
	JPS  prebias
	JMP  prenext

prebias:
	VADDSD (DI)(BX*8), X13, X9
	VMOVSD X9, (DI)(BX*8)

prenext:
	INCQ BX
	CMPQ BX, R9
	JLT  pre

	MOVQ AX, R10              // R10 = gf from here on
	MOVQ xg+16(FP), CX
	MOVQ x+32(FP), DX
	MOVQ R8, R13
	SHLQ $3, R13              // R13 = in*8 bytes = row stride
	XORQ R12, R12             // R12 = i

b16:
	MOVQ R8, AX
	SUBQ R12, AX
	CMPQ AX, $16
	JLT  b8
	LEAQ (DX)(R12*8), AX
	VMOVUPD (AX), Y4
	VMOVUPD 32(AX), Y5
	VMOVUPD 64(AX), Y6
	VMOVUPD 96(AX), Y7
	LEAQ (CX)(R12*8), AX
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	MOVQ gw+0(FP), DI
	LEAQ (DI)(R12*8), DI
	MOVQ w+24(FP), SI
	LEAQ (SI)(R12*8), SI
	XORQ BX, BX

o16:
	MOVQ (R10)(BX*8), R11
	ADDQ R11, R11
	JZ   n16
	VBROADCASTSD (R10)(BX*8), Y8
	VMULPD (SI), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(SI), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD 64(SI), Y8, Y9
	VADDPD Y9, Y2, Y2
	VMULPD 96(SI), Y8, Y10
	VADDPD Y10, Y3, Y3
	VMULPD Y4, Y8, Y9
	VADDPD (DI), Y9, Y9
	VMOVUPD Y9, (DI)
	VMULPD Y5, Y8, Y10
	VADDPD 32(DI), Y10, Y10
	VMOVUPD Y10, 32(DI)
	VMULPD Y6, Y8, Y9
	VADDPD 64(DI), Y9, Y9
	VMOVUPD Y9, 64(DI)
	VMULPD Y7, Y8, Y10
	VADDPD 96(DI), Y10, Y10
	VMOVUPD Y10, 96(DI)

n16:
	ADDQ R13, DI
	ADDQ R13, SI
	INCQ BX
	CMPQ BX, R9
	JLT  o16
	LEAQ (CX)(R12*8), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	ADDQ $16, R12
	JMP  b16

b8:
	MOVQ R8, AX
	SUBQ R12, AX
	CMPQ AX, $8
	JLT  b4
	LEAQ (DX)(R12*8), AX
	VMOVUPD (AX), Y4
	VMOVUPD 32(AX), Y5
	LEAQ (CX)(R12*8), AX
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	MOVQ gw+0(FP), DI
	LEAQ (DI)(R12*8), DI
	MOVQ w+24(FP), SI
	LEAQ (SI)(R12*8), SI
	XORQ BX, BX

o8:
	MOVQ (R10)(BX*8), R11
	ADDQ R11, R11
	JZ   n8
	VBROADCASTSD (R10)(BX*8), Y8
	VMULPD (SI), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(SI), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD Y4, Y8, Y9
	VADDPD (DI), Y9, Y9
	VMOVUPD Y9, (DI)
	VMULPD Y5, Y8, Y10
	VADDPD 32(DI), Y10, Y10
	VMOVUPD Y10, 32(DI)

n8:
	ADDQ R13, DI
	ADDQ R13, SI
	INCQ BX
	CMPQ BX, R9
	JLT  o8
	LEAQ (CX)(R12*8), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	ADDQ $8, R12
	JMP  b8

b4:
	MOVQ R8, AX
	SUBQ R12, AX
	CMPQ AX, $4
	JLT  b1
	VMOVUPD (DX)(R12*8), Y4
	VMOVUPD (CX)(R12*8), Y0
	MOVQ gw+0(FP), DI
	LEAQ (DI)(R12*8), DI
	MOVQ w+24(FP), SI
	LEAQ (SI)(R12*8), SI
	XORQ BX, BX

o4:
	MOVQ (R10)(BX*8), R11
	ADDQ R11, R11
	JZ   n4
	VBROADCASTSD (R10)(BX*8), Y8
	VMULPD (SI), Y8, Y10
	VADDPD Y10, Y0, Y0
	VMULPD Y4, Y8, Y9
	VADDPD (DI), Y9, Y9
	VMOVUPD Y9, (DI)

n4:
	ADDQ R13, DI
	ADDQ R13, SI
	INCQ BX
	CMPQ BX, R9
	JLT  o4
	VMOVUPD Y0, (CX)(R12*8)
	ADDQ $4, R12
	JMP  b4

b1:
	CMPQ R12, R8
	JGE  done
	VMOVSD (DX)(R12*8), X4
	VMOVSD (CX)(R12*8), X0
	MOVQ gw+0(FP), DI
	LEAQ (DI)(R12*8), DI
	MOVQ w+24(FP), SI
	LEAQ (SI)(R12*8), SI
	XORQ BX, BX

o1:
	MOVQ (R10)(BX*8), R11
	ADDQ R11, R11
	JZ   n1
	VMOVSD (R10)(BX*8), X8
	VMULSD (SI), X8, X10
	VADDSD X10, X0, X0
	VMULSD X4, X8, X9
	VADDSD (DI), X9, X9
	VMOVSD X9, (DI)

n1:
	ADDQ R13, DI
	ADDQ R13, SI
	INCQ BX
	CMPQ BX, R9
	JLT  o1
	VMOVSD X0, (CX)(R12*8)
	INCQ R12
	JMP  b1

done:
	VZEROUPPER
	RET

// ZXG adds gf·w[o, block vector] to the xg accumulator acc; ZGW computes
// gf·x + gw[o, block vector] into t, reading gw but not writing it. The
// T forms address the block's last vector, R14 bytes into the block.
// Z8 is the broadcast gf, Z13 a temporary; SI and DI point at element
// (o, block start) of w and gw.
#define ZXG(off, acc) \
	VMULPD off(SI), Z8, Z13; \
	VADDPD Z13, acc, acc

#define ZXGT(acc) \
	VMULPD (SI)(R14*1), Z8, Z13; \
	VADDPD Z13, acc, acc

#define ZGW(off, xv, t) \
	VMULPD xv, Z8, t; \
	VADDPD off(DI), t, t

#define ZGWT(xv, t) \
	VMULPD xv, Z8, t; \
	VADDPD (DI)(R14*1), t, t

// ZROW opens row o = BX of a block: it skips the row (to skip) when
// gf[o] is ±0 and broadcasts gf[o] into Z8 otherwise.
#define ZROW(skip) \
	MOVQ (R10)(BX*8), AX; \
	ADDQ AX, AX; \
	JZ   skip; \
	VBROADCASTSD (R10)(BX*8), Z8

// ZNEXT steps DI and SI to the next row and loops to row while rows are
// left.
#define ZNEXT(row) \
	ADDQ R13, DI; \
	ADDQ R13, SI; \
	INCQ BX; \
	CMPQ BX, R9; \
	JLT  row

// func affineBackwardAVX512(gw, gb, xg, w, x, dy, act, gf *float64, alpha float64, in, out int)
//
// affineBackwardAVX on 512-bit vectors: the same contract and the same
// bits, eight input columns to a ZMM vector, every lane doing the scalar
// multiply and the scalar add of the Go loop, in the same order, with no
// fused multiply-add. It needs AVX-512F and in >= 8.
//
// The first pass takes the out rows eight at a time, the last vector
// masked (K1): gf = dy, blended with dy·alpha where act < 0, is stored,
// and added to gb under a mask (K3) of the lanes that are not ±0 — a NaN
// compares not-equal-unordered and is added, as in Go.
//
// Then input columns go in blocks of up to 32, four vectors, so a layer
// of up to 32 inputs is one pass over its rows. A block holds its x
// values (Z4-Z7) and xg accumulators (Z0-Z3) in registers while o walks
// every row. A block whose width is not a multiple of eight ends with a
// vector aligned to the block's end, R14 bytes in, which overlaps the
// vector before it (or, for a narrow last block, the block before); only
// its new lanes (K1) are stored, to gw and to xg. A masked store never
// reaches past the block into the next gw row, and every gw load of a
// row (folded into its VADDPD) comes before that row's stores, so no
// load waits on a partly overlapping store. In the overlap a lane
// computes what the vector before it stores, or — across blocks — a
// second contribution that its mask throws away.
//
// Z0-Z3 xg accumulators, Z4-Z7 x, Z8 broadcast gf, Z9-Z12 new gw
// values, Z13 a temporary, Z14 broadcast alpha, Z15 zero.
TEXT ·affineBackwardAVX512(SB), NOSPLIT, $0-88
	MOVQ gb+8(FP), DI
	MOVQ dy+40(FP), R10
	MOVQ act+48(FP), R11
	MOVQ gf+56(FP), SI
	VBROADCASTSD alpha+64(FP), Z14
	MOVQ in+72(FP), R8
	MOVQ out+80(FP), R9
	VPXORQ Z15, Z15, Z15
	XORQ BX, BX               // BX = o

zpre:
	MOVQ R9, CX
	SUBQ BX, CX
	JLE  zmain
	MOVQ $8, AX
	CMPQ CX, AX
	CMOVQGT AX, CX
	NEGL CX
	ANDL $7, CX
	MOVL $0xff, AX
	SHRL CX, AX
	KMOVW AX, K1              // the rows o..o+7 that exist
	VMOVUPD.Z (R10)(BX*8), K1, Z0
	VMOVUPD.Z (R11)(BX*8), K1, Z1
	VMULPD Z14, Z0, Z2        // dy*alpha
	VCMPPD $1, Z15, Z1, K2    // act < 0
	VMOVAPD Z2, K2, Z0        // gf
	VMOVUPD Z0, K1, (SI)(BX*8)
	VCMPPD $4, Z15, Z0, K1, K3 // gf != 0, or unordered
	VMOVUPD.Z (DI)(BX*8), K1, Z3
	VADDPD Z3, Z0, K3, Z3
	VMOVUPD Z3, K1, (DI)(BX*8)
	ADDQ $8, BX
	JMP  zpre

zmain:
	MOVQ SI, R10              // R10 = gf from here on
	MOVQ R8, R13
	SHLQ $3, R13              // R13 = in*8 bytes = row stride
	XORQ R12, R12             // R12 = i, the block's first column

zblock:
	MOVQ R8, AX
	SUBQ R12, AX
	JLE  zdone
	MOVQ $32, CX
	CMPQ AX, CX
	CMOVQGT CX, AX            // AX = block width
	LEAQ -8(AX), R14
	SHLQ $3, R14              // R14 = byte offset of the last vector
	LEAQ 7(AX), CX
	ANDQ $-8, CX
	SUBQ AX, CX               // lanes of the last vector that overlap
	MOVL $0xff, DX
	SHLL CX, DX
	ANDL $0xff, DX
	KMOVW DX, K1
	MOVQ x+32(FP), DX
	LEAQ (DX)(R12*8), DX      // DX = x of the block
	MOVQ xg+16(FP), CX
	LEAQ (CX)(R12*8), CX      // CX = xg of the block
	MOVQ gw+0(FP), DI
	LEAQ (DI)(R12*8), DI
	MOVQ w+24(FP), SI
	LEAQ (SI)(R12*8), SI
	XORQ BX, BX
	CMPQ AX, $24
	JGT  zv4
	CMPQ AX, $16
	JGT  zv3
	CMPQ AX, $8
	JGT  zv2

	VMOVUPD (DX)(R14*1), Z4
	VMOVUPD (CX)(R14*1), Z0

zo1:
	ZROW(zn1)
	ZXGT(Z0)
	ZGWT(Z4, Z9)
	VMOVUPD Z9, K1, (DI)(R14*1)

zn1:
	ZNEXT(zo1)
	VMOVUPD Z0, K1, (CX)(R14*1)
	JMP  znext

zv2:
	VMOVUPD (DX), Z4
	VMOVUPD (DX)(R14*1), Z5
	VMOVUPD (CX), Z0
	VMOVUPD (CX)(R14*1), Z1

zo2:
	ZROW(zn2)
	ZXG(0, Z0)
	ZXGT(Z1)
	ZGW(0, Z4, Z9)
	ZGWT(Z5, Z10)
	VMOVUPD Z9, (DI)
	VMOVUPD Z10, K1, (DI)(R14*1)

zn2:
	ZNEXT(zo2)
	VMOVUPD Z0, (CX)
	VMOVUPD Z1, K1, (CX)(R14*1)
	JMP  znext

zv3:
	VMOVUPD (DX), Z4
	VMOVUPD 64(DX), Z5
	VMOVUPD (DX)(R14*1), Z6
	VMOVUPD (CX), Z0
	VMOVUPD 64(CX), Z1
	VMOVUPD (CX)(R14*1), Z2

zo3:
	ZROW(zn3)
	ZXG(0, Z0)
	ZXG(64, Z1)
	ZXGT(Z2)
	ZGW(0, Z4, Z9)
	ZGW(64, Z5, Z10)
	ZGWT(Z6, Z11)
	VMOVUPD Z9, (DI)
	VMOVUPD Z10, 64(DI)
	VMOVUPD Z11, K1, (DI)(R14*1)

zn3:
	ZNEXT(zo3)
	VMOVUPD Z0, (CX)
	VMOVUPD Z1, 64(CX)
	VMOVUPD Z2, K1, (CX)(R14*1)
	JMP  znext

zv4:
	VMOVUPD (DX), Z4
	VMOVUPD 64(DX), Z5
	VMOVUPD 128(DX), Z6
	VMOVUPD (DX)(R14*1), Z7
	VMOVUPD (CX), Z0
	VMOVUPD 64(CX), Z1
	VMOVUPD 128(CX), Z2
	VMOVUPD (CX)(R14*1), Z3

zo4:
	ZROW(zn4)
	ZXG(0, Z0)
	ZXG(64, Z1)
	ZXG(128, Z2)
	ZXGT(Z3)
	ZGW(0, Z4, Z9)
	ZGW(64, Z5, Z10)
	ZGW(128, Z6, Z11)
	ZGWT(Z7, Z12)
	VMOVUPD Z9, (DI)
	VMOVUPD Z10, 64(DI)
	VMOVUPD Z11, 128(DI)
	VMOVUPD Z12, K1, (DI)(R14*1)

zn4:
	ZNEXT(zo4)
	VMOVUPD Z0, (CX)
	VMOVUPD Z1, 64(CX)
	VMOVUPD Z2, 128(CX)
	VMOVUPD Z3, K1, (CX)(R14*1)

znext:
	SARQ $3, R14
	LEAQ 8(R12)(R14*1), R12   // i += block width
	JMP  zblock

zdone:
	VZEROUPPER
	RET

// func addClearAVX(dst, src *float64, n int)
//
// dst[i] += src[i]; src[i] = 0. Blocks of 16 and 4 doubles, scalar tail.
TEXT ·addClearAVX(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VXORPD Y4, Y4, Y4

ac16:
	CMPQ CX, $16
	JLT  ac4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VADDPD (SI), Y0, Y0
	VADDPD 32(SI), Y1, Y1
	VADDPD 64(SI), Y2, Y2
	VADDPD 96(SI), Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, (SI)
	VMOVUPD Y4, 32(SI)
	VMOVUPD Y4, 64(SI)
	VMOVUPD Y4, 96(SI)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $16, CX
	JMP  ac16

ac4:
	CMPQ CX, $4
	JLT  ac1
	VMOVUPD (DI), Y0
	VADDPD (SI), Y0, Y0
	VMOVUPD Y0, (DI)
	VMOVUPD Y4, (SI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $4, CX
	JMP  ac4

ac1:
	CMPQ CX, $0
	JLE  acdone
	VMOVSD (DI), X0
	VADDSD (SI), X0, X0
	VMOVSD X0, (DI)
	VMOVSD X4, (SI)
	ADDQ $8, DI
	ADDQ $8, SI
	DECQ CX
	JMP  ac1

acdone:
	VZEROUPPER
	RET

// func adamRowsAVX(p, grad, m, v, mt *float64, rows, cols int, beta1, omb1, beta2, omb2, c1, c2, lr, eps, scale float64)
//
// Per element of the rows×cols p, in index order, in the Go loop's
// operation order:
//
//	gi = grad*scale; grad = +0
//	m  = beta1*m + omb1*gi
//	v  = beta2*v + (omb2*gi)*gi
//	p  = p - (lr*(m/c1)) / (sqrt(v/c2) + eps)
//
// and, when mt is not nil, the new p[r*cols+c] is also stored to
// mt[c*rows+r]: row r of a layer's W lands in column r of its
// column-major mirror. The elements are taken four at a time across row
// ends, with one scalar tail, so a row narrower than a vector costs no
// tail of its own. A pass's four new weights are stored lane by lane:
// R13 points at the next one's mirror slot and steps by the mirror's row
// stride R11 (rows*8 bytes); when R14, the columns left in row r, runs
// out, R13 moves to the head of column r+1, kept in AX. The divides and
// the square root bound the pass; the clear and the stores fit beside
// them. Y6-Y14 hold the nine constants, Y15 zero. The four-wide loop
// starts on a 32-byte boundary.
TEXT ·adamRowsAVX(SB), NOSPLIT, $0-128
	MOVQ p+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), DX
	MOVQ v+24(FP), BX
	MOVQ mt+32(FP), R8
	MOVQ rows+40(FP), R9
	MOVQ cols+48(FP), R10
	VBROADCASTSD beta1+56(FP), Y6
	VBROADCASTSD omb1+64(FP), Y7
	VBROADCASTSD beta2+72(FP), Y8
	VBROADCASTSD omb2+80(FP), Y9
	VBROADCASTSD c1+88(FP), Y10
	VBROADCASTSD c2+96(FP), Y11
	VBROADCASTSD lr+104(FP), Y12
	VBROADCASTSD eps+112(FP), Y13
	VBROADCASTSD scale+120(FP), Y14
	VXORPD Y15, Y15, Y15
	MOVQ R9, CX
	IMULQ R10, CX             // elements left
	MOVQ R9, R11
	SHLQ $3, R11              // mirror row stride
	MOVQ R8, AX               // &mt[r]: column r's head, r = 0
	MOVQ R8, R13              // the next weight's mirror slot
	MOVQ R10, R14             // columns left in row r
	PCALIGN $32

ad4:
	CMPQ CX, $4
	JLT  ad1
	VMULPD (SI), Y14, Y0      // gi = grad*scale
	VMOVUPD Y15, (SI)         // grad = +0
	VMULPD (DX), Y6, Y1       // beta1*m
	VMULPD Y0, Y7, Y2         // omb1*gi
	VADDPD Y2, Y1, Y1         // m
	VMOVUPD Y1, (DX)
	VMULPD (BX), Y8, Y3       // beta2*v
	VMULPD Y0, Y9, Y2         // omb2*gi
	VMULPD Y0, Y2, Y2         // (omb2*gi)*gi
	VADDPD Y2, Y3, Y3         // v
	VMOVUPD Y3, (BX)
	VDIVPD Y10, Y1, Y1        // mhat = m/c1
	VDIVPD Y11, Y3, Y3        // vhat = v/c2
	VMULPD Y1, Y12, Y1        // lr*mhat
	VSQRTPD Y3, Y3
	VADDPD Y13, Y3, Y3        // sqrt(vhat)+eps
	VDIVPD Y3, Y1, Y1         // update
	VMOVUPD (DI), Y4
	VSUBPD Y1, Y4, Y4         // p - update
	VMOVUPD Y4, (DI)
	TESTQ R8, R8
	JZ   ad4next
	VEXTRACTF128 $1, Y4, X5
	VMOVSD X4, (R13)
	ADDQ R11, R13             // next column of row r
	DECQ R14
	JNZ  adlane1
	ADDQ $8, AX               // row r+1 starts column r+1
	MOVQ AX, R13
	MOVQ R10, R14

adlane1:
	VMOVHPD X4, (R13)
	ADDQ R11, R13             // next column of row r
	DECQ R14
	JNZ  adlane2
	ADDQ $8, AX               // row r+1 starts column r+1
	MOVQ AX, R13
	MOVQ R10, R14

adlane2:
	VMOVSD X5, (R13)
	ADDQ R11, R13             // next column of row r
	DECQ R14
	JNZ  adlane3
	ADDQ $8, AX               // row r+1 starts column r+1
	MOVQ AX, R13
	MOVQ R10, R14

adlane3:
	VMOVHPD X5, (R13)
	ADDQ R11, R13             // next column of row r
	DECQ R14
	JNZ  ad4next
	ADDQ $8, AX               // row r+1 starts column r+1
	MOVQ AX, R13
	MOVQ R10, R14

ad4next:
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, BX
	SUBQ $4, CX
	JMP  ad4

ad1:
	CMPQ CX, $0
	JLE  adone
	VMULSD (SI), X14, X0
	VMOVSD X15, (SI)
	VMULSD (DX), X6, X1
	VMULSD X0, X7, X2
	VADDSD X2, X1, X1
	VMOVSD X1, (DX)
	VMULSD (BX), X8, X3
	VMULSD X0, X9, X2
	VMULSD X0, X2, X2
	VADDSD X2, X3, X3
	VMOVSD X3, (BX)
	VDIVSD X10, X1, X1
	VDIVSD X11, X3, X3
	VMULSD X1, X12, X1
	VSQRTSD X3, X3, X3
	VADDSD X13, X3, X3
	VDIVSD X3, X1, X1
	VMOVSD (DI), X4
	VSUBSD X1, X4, X4
	VMOVSD X4, (DI)
	TESTQ R8, R8
	JZ   ad1next
	VMOVSD X4, (R13)
	ADDQ R11, R13             // next column of row r
	DECQ R14
	JNZ  ad1next
	ADDQ $8, AX               // row r+1 starts column r+1
	MOVQ AX, R13
	MOVQ R10, R14

ad1next:
	ADDQ $8, DI
	ADDQ $8, SI
	ADDQ $8, DX
	ADDQ $8, BX
	DECQ CX
	JMP  ad1

adone:
	VZEROUPPER
	RET
