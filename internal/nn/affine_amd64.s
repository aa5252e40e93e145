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

// func affineTransAVX(y, x, wt, b *float64, in, out, rows, yStride, xStride int)
//
// For each of rows >= 1 rows, the next one yStride / xStride doubles
// after the last:
//
// y[o] = b[o] + sum_i wt[i*out+o] * x[i], o in [0, out).
//
// wt is the transposed weight matrix (in rows of out contiguous
// doubles), so outputs sit in adjacent lanes and every load is
// unit-stride. i advances sequentially, keeping each output's
// accumulation order identical to the scalar kernel. Output blocks of
// 16 (4 YMM accumulators = 4 independent FP-add dependency chains),
// then 8, 4, and a scalar tail.
TEXT ·affineTransAVX(SB), NOSPLIT, $0-72
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ wt+16(FP), DX
	MOVQ b+24(FP), CX
	MOVQ in+32(FP), R8
	MOVQ out+40(FP), R9

	MOVQ R9, R13
	SHLQ $3, R13              // R13 = out*8 bytes = wt row stride
	SHLQ $3, yStride+56(FP)   // row strides in bytes, kept in the frame
	SHLQ $3, xStride+64(FP)

row:
	XORQ R10, R10             // R10 = o

blk16:
	MOVQ R9, AX
	SUBQ R10, AX
	CMPQ AX, $16
	JLT  blk8
	LEAQ (CX)(R10*8), BX
	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	LEAQ (DX)(R10*8), R12     // &wt[o]
	XORQ R11, R11             // i

i16:
	CMPQ R11, R8
	JGE  s16
	VBROADCASTSD (SI)(R11*8), Y4
	VMULPD (R12), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(R12), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD 64(R12), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 96(R12), Y4, Y8
	VADDPD Y8, Y3, Y3
	ADDQ R13, R12
	INCQ R11
	JMP  i16

s16:
	LEAQ (DI)(R10*8), BX
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, 64(BX)
	VMOVUPD Y3, 96(BX)
	ADDQ $16, R10
	JMP  blk16

blk8:
	MOVQ R9, AX
	SUBQ R10, AX
	CMPQ AX, $8
	JLT  blk4
	LEAQ (CX)(R10*8), BX
	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y1
	LEAQ (DX)(R10*8), R12
	XORQ R11, R11

i8:
	CMPQ R11, R8
	JGE  s8
	VBROADCASTSD (SI)(R11*8), Y4
	VMULPD (R12), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(R12), Y4, Y6
	VADDPD Y6, Y1, Y1
	ADDQ R13, R12
	INCQ R11
	JMP  i8

s8:
	LEAQ (DI)(R10*8), BX
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, 32(BX)
	ADDQ $8, R10
	JMP  blk8

blk4:
	MOVQ R9, AX
	SUBQ R10, AX
	CMPQ AX, $4
	JLT  tail
	VMOVUPD (CX)(R10*8), Y0
	LEAQ (DX)(R10*8), R12
	XORQ R11, R11

i4:
	CMPQ R11, R8
	JGE  s4
	VBROADCASTSD (SI)(R11*8), Y4
	VMULPD (R12), Y4, Y5
	VADDPD Y5, Y0, Y0
	ADDQ R13, R12
	INCQ R11
	JMP  i4

s4:
	VMOVUPD Y0, (DI)(R10*8)
	ADDQ $4, R10
	JMP  blk4

tail:
	CMPQ R10, R9
	JGE  done
	VMOVSD (CX)(R10*8), X0
	LEAQ (DX)(R10*8), R12
	XORQ R11, R11

itail:
	CMPQ R11, R8
	JGE  stail
	VMOVSD (SI)(R11*8), X1
	VMULSD (R12), X1, X1
	VADDSD X1, X0, X0
	ADDQ R13, R12
	INCQ R11
	JMP  itail

stail:
	VMOVSD X0, (DI)(R10*8)
	INCQ R10
	JMP  tail

done:
	DECQ rows+48(FP)
	JLE  ret
	ADDQ yStride+56(FP), DI
	ADDQ xStride+64(FP), SI
	JMP  row

ret:
	VZEROUPPER
	RET

// func affineTransAVX32(y, x, wt, b *float32, in, out, rows, yStride, xStride int)
//
// float32 twin: 8 lanes per YMM register, blocks of 32/16/8 + scalar
// tail, wt row stride = out*4 bytes.
TEXT ·affineTransAVX32(SB), NOSPLIT, $0-72
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ wt+16(FP), DX
	MOVQ b+24(FP), CX
	MOVQ in+32(FP), R8
	MOVQ out+40(FP), R9

	MOVQ R9, R13
	SHLQ $2, R13              // R13 = out*4 bytes = wt row stride
	SHLQ $2, yStride+56(FP)   // row strides in bytes, kept in the frame
	SHLQ $2, xStride+64(FP)

rowf:
	XORQ R10, R10             // R10 = o

blk32:
	MOVQ R9, AX
	SUBQ R10, AX
	CMPQ AX, $32
	JLT  blk16
	LEAQ (CX)(R10*4), BX
	VMOVUPS (BX), Y0
	VMOVUPS 32(BX), Y1
	VMOVUPS 64(BX), Y2
	VMOVUPS 96(BX), Y3
	LEAQ (DX)(R10*4), R12
	XORQ R11, R11

i32:
	CMPQ R11, R8
	JGE  s32
	VBROADCASTSS (SI)(R11*4), Y4
	VMULPS (R12), Y4, Y5
	VADDPS Y5, Y0, Y0
	VMULPS 32(R12), Y4, Y6
	VADDPS Y6, Y1, Y1
	VMULPS 64(R12), Y4, Y7
	VADDPS Y7, Y2, Y2
	VMULPS 96(R12), Y4, Y8
	VADDPS Y8, Y3, Y3
	ADDQ R13, R12
	INCQ R11
	JMP  i32

s32:
	LEAQ (DI)(R10*4), BX
	VMOVUPS Y0, (BX)
	VMOVUPS Y1, 32(BX)
	VMOVUPS Y2, 64(BX)
	VMOVUPS Y3, 96(BX)
	ADDQ $32, R10
	JMP  blk32

blk16:
	MOVQ R9, AX
	SUBQ R10, AX
	CMPQ AX, $16
	JLT  blk8f
	LEAQ (CX)(R10*4), BX
	VMOVUPS (BX), Y0
	VMOVUPS 32(BX), Y1
	LEAQ (DX)(R10*4), R12
	XORQ R11, R11

i16f:
	CMPQ R11, R8
	JGE  s16f
	VBROADCASTSS (SI)(R11*4), Y4
	VMULPS (R12), Y4, Y5
	VADDPS Y5, Y0, Y0
	VMULPS 32(R12), Y4, Y6
	VADDPS Y6, Y1, Y1
	ADDQ R13, R12
	INCQ R11
	JMP  i16f

s16f:
	LEAQ (DI)(R10*4), BX
	VMOVUPS Y0, (BX)
	VMOVUPS Y1, 32(BX)
	ADDQ $16, R10
	JMP  blk16

blk8f:
	MOVQ R9, AX
	SUBQ R10, AX
	CMPQ AX, $8
	JLT  tailf
	VMOVUPS (CX)(R10*4), Y0
	LEAQ (DX)(R10*4), R12
	XORQ R11, R11

i8f:
	CMPQ R11, R8
	JGE  s8f
	VBROADCASTSS (SI)(R11*4), Y4
	VMULPS (R12), Y4, Y5
	VADDPS Y5, Y0, Y0
	ADDQ R13, R12
	INCQ R11
	JMP  i8f

s8f:
	VMOVUPS Y0, (DI)(R10*4)
	ADDQ $8, R10
	JMP  blk8f

tailf:
	CMPQ R10, R9
	JGE  donef
	VMOVSS (CX)(R10*4), X0
	LEAQ (DX)(R10*4), R12
	XORQ R11, R11

itailf:
	CMPQ R11, R8
	JGE  stailf
	VMOVSS (SI)(R11*4), X1
	VMULSS (R12), X1, X1
	VADDSS X1, X0, X0
	ADDQ R13, R12
	INCQ R11
	JMP  itailf

stailf:
	VMOVSS X0, (DI)(R10*4)
	INCQ R10
	JMP  tailf

donef:
	DECQ rows+48(FP)
	JLE  retf
	ADDQ yStride+56(FP), DI
	ADDQ xStride+64(FP), SI
	JMP  rowf

retf:
	VZEROUPPER
	RET
