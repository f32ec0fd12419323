// The fused sum-and-sigmoid vertex kernel. It evaluates vertices of one
// network layer, in whole 4-lane groups of their rows, and computes
// lane for lane
//
//   acc = +0; for each fan-in edge k in CSR order: acc += v_k * w_k
//   out = 1 / (1 + exp(-clamp(5 * (bias + resp*acc))))
//
// with the same IEEE-754 operations, in the same order, as the scalar
// network evaluator (Network.FeedInto), so every lane is bit-identical
// to it:
//
//   - Each edge is a separate VMULPD and VADDPD. Go on amd64 fuses only
//     explicit math.FMA, so the scalar loop rounds the product and the
//     sum separately, and so must the kernel.
//   - clamp bounds to ±60 and lets NaN through, as the scalar clampExp
//     does: VMINPD/VMAXPD return their second Intel source when either
//     operand is NaN, so x goes second.
//   - The exp is math.Exp's FMA path (a SLEEF-derived kernel; see
//     $GOROOT/src/math/exp_amd64.s), which the stdlib takes on every
//     host where this kernel runs: each step below is the packed twin
//     of one scalar instruction there, with the same constants. On
//     [-60, 60] the scalar code takes no special-case branch (the
//     biased exponent stays strictly inside (0, 0x7FF)), so the
//     straight-line sequence covers every clamped argument but NaN.
//   - 1/(1+e) is a correctly rounded add and divide.
//
// One (row, group) task is a dependency chain of some 160 cycles, most
// of it the exp, and the chains of consecutive calls barely overlap in
// the out-of-order window. So the kernel takes a layer's rows, whose
// vertices never read each other, and runs its tasks two at a time
// (rows in order, each row's groups in order), with both chains
// interleaved instruction by instruction. Each task's accumulator and
// intermediates stay in registers from the first load to its one
// store. A pair in which either task's exp argument is NaN stops the
// kernel before it writes; the caller finishes those and every later
// task with the scalar expression.

#include "textflag.h"

// Constant table, each value broadcast across 4 lanes. The polynomial
// coefficients and split-log2 constants are copied verbatim from the
// stdlib's exp_amd64.s.
#define VCLAMP 0
#define VNCLAMP 32
#define VFIVE 64
#define VSIGN 96
#define VLOG2E 128
#define VLN2U 160
#define VLN2L 192
#define VSIXTEENTH 224
#define VC8 256
#define VC7 288
#define VC6 320
#define VC5 352
#define VC4 384
#define VC3 416
#define VHALF 448
#define VONE 480
#define VTWO 512
#define VBIAS 544

DATA vexp<>+0(SB)/8, $60.0
DATA vexp<>+8(SB)/8, $60.0
DATA vexp<>+16(SB)/8, $60.0
DATA vexp<>+24(SB)/8, $60.0
DATA vexp<>+32(SB)/8, $-60.0
DATA vexp<>+40(SB)/8, $-60.0
DATA vexp<>+48(SB)/8, $-60.0
DATA vexp<>+56(SB)/8, $-60.0
DATA vexp<>+64(SB)/8, $5.0
DATA vexp<>+72(SB)/8, $5.0
DATA vexp<>+80(SB)/8, $5.0
DATA vexp<>+88(SB)/8, $5.0
DATA vexp<>+96(SB)/8, $0x8000000000000000
DATA vexp<>+104(SB)/8, $0x8000000000000000
DATA vexp<>+112(SB)/8, $0x8000000000000000
DATA vexp<>+120(SB)/8, $0x8000000000000000
DATA vexp<>+128(SB)/8, $1.4426950408889634073599246810018920
DATA vexp<>+136(SB)/8, $1.4426950408889634073599246810018920
DATA vexp<>+144(SB)/8, $1.4426950408889634073599246810018920
DATA vexp<>+152(SB)/8, $1.4426950408889634073599246810018920
DATA vexp<>+160(SB)/8, $0.69314718055966295651160180568695068359375
DATA vexp<>+168(SB)/8, $0.69314718055966295651160180568695068359375
DATA vexp<>+176(SB)/8, $0.69314718055966295651160180568695068359375
DATA vexp<>+184(SB)/8, $0.69314718055966295651160180568695068359375
DATA vexp<>+192(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA vexp<>+200(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA vexp<>+208(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA vexp<>+216(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA vexp<>+224(SB)/8, $0.0625
DATA vexp<>+232(SB)/8, $0.0625
DATA vexp<>+240(SB)/8, $0.0625
DATA vexp<>+248(SB)/8, $0.0625
DATA vexp<>+256(SB)/8, $2.4801587301587301587e-5
DATA vexp<>+264(SB)/8, $2.4801587301587301587e-5
DATA vexp<>+272(SB)/8, $2.4801587301587301587e-5
DATA vexp<>+280(SB)/8, $2.4801587301587301587e-5
DATA vexp<>+288(SB)/8, $1.9841269841269841270e-4
DATA vexp<>+296(SB)/8, $1.9841269841269841270e-4
DATA vexp<>+304(SB)/8, $1.9841269841269841270e-4
DATA vexp<>+312(SB)/8, $1.9841269841269841270e-4
DATA vexp<>+320(SB)/8, $1.3888888888888888889e-3
DATA vexp<>+328(SB)/8, $1.3888888888888888889e-3
DATA vexp<>+336(SB)/8, $1.3888888888888888889e-3
DATA vexp<>+344(SB)/8, $1.3888888888888888889e-3
DATA vexp<>+352(SB)/8, $8.3333333333333333333e-3
DATA vexp<>+360(SB)/8, $8.3333333333333333333e-3
DATA vexp<>+368(SB)/8, $8.3333333333333333333e-3
DATA vexp<>+376(SB)/8, $8.3333333333333333333e-3
DATA vexp<>+384(SB)/8, $4.1666666666666666667e-2
DATA vexp<>+392(SB)/8, $4.1666666666666666667e-2
DATA vexp<>+400(SB)/8, $4.1666666666666666667e-2
DATA vexp<>+408(SB)/8, $4.1666666666666666667e-2
DATA vexp<>+416(SB)/8, $1.6666666666666666667e-1
DATA vexp<>+424(SB)/8, $1.6666666666666666667e-1
DATA vexp<>+432(SB)/8, $1.6666666666666666667e-1
DATA vexp<>+440(SB)/8, $1.6666666666666666667e-1
DATA vexp<>+448(SB)/8, $0.5
DATA vexp<>+456(SB)/8, $0.5
DATA vexp<>+464(SB)/8, $0.5
DATA vexp<>+472(SB)/8, $0.5
DATA vexp<>+480(SB)/8, $1.0
DATA vexp<>+488(SB)/8, $1.0
DATA vexp<>+496(SB)/8, $1.0
DATA vexp<>+504(SB)/8, $1.0
DATA vexp<>+512(SB)/8, $2.0
DATA vexp<>+520(SB)/8, $2.0
DATA vexp<>+528(SB)/8, $2.0
DATA vexp<>+536(SB)/8, $2.0
DATA vexp<>+544(SB)/8, $0x00000000000003FF
DATA vexp<>+552(SB)/8, $0x00000000000003FF
DATA vexp<>+560(SB)/8, $0x00000000000003FF
DATA vexp<>+568(SB)/8, $0x00000000000003FF
GLOBL vexp<>(SB), RODATA|NOPTR, $576

// TASK loads the task at the cursor (CX: index into rows, AX: lane byte
// offset in the row) into the locals ROW (row byte offset + lane
// offset), LO and HI (its CSR edge range) and LANE, then advances the
// cursor to the next group, or to the next row's first group.
#define TASK(ROW, LO, HI, LANE) \
	MOVLQSX (DI)(CX*4), BX; \
	MOVLQSX (R11)(BX*4), DX; \
	MOVQ    DX, LO(SP); \
	MOVLQSX 4(R11)(BX*4), DX; \
	MOVQ    DX, HI(SP); \
	IMULQ   R13, BX; \
	ADDQ    AX, BX; \
	MOVQ    BX, ROW(SP); \
	MOVQ    AX, LANE(SP); \
	ADDQ    $32, AX; \
	XORQ    DX, DX; \
	CMPQ    AX, 72(SP); \
	CMOVQEQ DX, AX; \
	SETEQ   DL; \
	ADDQ    DX, CX

// func sigmoidRowsVec(vals, w, bias, resp *float64, off, src, rows *int32, nrows, stride, n int) int
//
// Locals: task A at 0(SP) (row, lo, hi, lane), task B at 32(SP), the
// tasks finished at 64(SP) and the bytes of whole groups per row at
// 72(SP).
TEXT ·sigmoidRowsVec(SB), NOSPLIT, $80-88
	MOVQ vals+0(FP), SI
	MOVQ w+8(FP), R8
	MOVQ bias+16(FP), R9
	MOVQ resp+24(FP), R10
	MOVQ off+32(FP), R11
	MOVQ src+40(FP), R12
	MOVQ rows+48(FP), DI
	MOVQ stride+64(FP), R13
	SHLQ $3, R13 // row stride in bytes
	MOVQ n+72(FP), DX
	ANDQ $-4, DX
	SHLQ $3, DX
	MOVQ DX, 72(SP)
	MOVQ $0, 64(SP)
	XORQ CX, CX
	XORQ AX, AX
	TESTQ DX, DX
	JZ   done
	VMOVUPD vexp<>+VCLAMP(SB), Y8
	VMOVUPD vexp<>+VNCLAMP(SB), Y9
	VMOVUPD vexp<>+VONE(SB), Y10

pair:
	CMPQ CX, nrows+56(FP)
	JGE  done
	TASK(0, 8, 16, 24)
	CMPQ CX, nrows+56(FP)
	JGE  alone
	TASK(32, 40, 48, 56)
	JMP  sum

alone:
	// An odd task count: B repeats A, so both store the same lanes, and
	// the pair counts as one task.
	SUBQ $1, 64(SP)
	MOVQ 0(SP), BX
	MOVQ BX, 32(SP)
	MOVQ 8(SP), BX
	MOVQ BX, 40(SP)
	MOVQ 16(SP), BX
	MOVQ BX, 48(SP)
	MOVQ 24(SP), BX
	MOVQ BX, 56(SP)

sum:
	// acc = +0, then acc += v*w over each task's fan-in in CSR order:
	// BX walks the edges, DX the weight rows at the task's lanes.
	VXORPD Y0, Y0, Y0
	MOVQ   8(SP), BX
	MOVQ   BX, DX
	IMULQ  R13, DX
	ADDQ   R8, DX
	ADDQ   24(SP), DX
	CMPQ   BX, 16(SP)
	JGE    summedA

edgeA:
	MOVLQSX (R12)(BX*4), R14 // source row
	IMULQ   R13, R14
	ADDQ    24(SP), R14
	VMOVUPD (SI)(R14*1), Y1
	VMULPD  (DX), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    R13, DX
	INCQ    BX
	CMPQ    BX, 16(SP)
	JLT     edgeA

summedA:
	VXORPD Y4, Y4, Y4
	MOVQ   40(SP), BX
	MOVQ   BX, DX
	IMULQ  R13, DX
	ADDQ   R8, DX
	ADDQ   56(SP), DX
	CMPQ   BX, 48(SP)
	JGE    summedB

edgeB:
	MOVLQSX (R12)(BX*4), R14
	IMULQ   R13, R14
	ADDQ    56(SP), R14
	VMOVUPD (SI)(R14*1), Y5
	VMULPD  (DX), Y5, Y5
	VADDPD  Y5, Y4, Y4
	ADDQ    R13, DX
	INCQ    BX
	CMPQ    BX, 48(SP)
	JLT     edgeB

summedB:
	// From here on task A's chain runs in Y0–Y3 and B's in Y4–Y7,
	// one instruction of each in turn. BX and DX hold the tasks' row
	// offsets.
	MOVQ 0(SP), BX
	MOVQ 32(SP), DX

	// x = clamp(5 * (bias + resp*acc)); NaN in either task declines
	// the pair.
	VMULPD    (R10)(BX*1), Y0, Y0
	VMULPD    (R10)(DX*1), Y4, Y4
	VADDPD    (R9)(BX*1), Y0, Y0
	VADDPD    (R9)(DX*1), Y4, Y4
	VMULPD    vexp<>+VFIVE(SB), Y0, Y0
	VMULPD    vexp<>+VFIVE(SB), Y4, Y4
	VMINPD    Y0, Y8, Y0 // 60 < x ? 60 : x
	VMINPD    Y4, Y8, Y4
	VMAXPD    Y0, Y9, Y0 // -60 > x ? -60 : x
	VMAXPD    Y4, Y9, Y4
	VCMPPD    $0x03, Y0, Y0, Y1 // UNORD_Q
	VCMPPD    $0x03, Y4, Y4, Y5
	VORPD     Y5, Y1, Y1
	VMOVMSKPD Y1, R14
	TESTL     R14, R14
	JNZ       done
	VXORPD    vexp<>+VSIGN(SB), Y0, Y0 // exp argument: -x
	VXORPD    vexp<>+VSIGN(SB), Y4, Y4

	// k = round-to-nearest(x * LOG2E); t = float64(k).
	// VCVTPD2DQ rounds via MXCSR exactly like the scalar CVTSD2SL.
	VMULPD vexp<>+VLOG2E(SB), Y0, Y1
	VMULPD vexp<>+VLOG2E(SB), Y4, Y5
	VCVTPD2DQY Y1, X1
	VCVTPD2DQY Y5, X5
	VCVTDQ2PD X1, Y2
	VCVTDQ2PD X5, Y6

	// x -= t*LN2U; x -= t*LN2L (both fused, as in the scalar path).
	VFNMADD231PD vexp<>+VLN2U(SB), Y2, Y0
	VFNMADD231PD vexp<>+VLN2U(SB), Y6, Y4
	VFNMADD231PD vexp<>+VLN2L(SB), Y2, Y0
	VFNMADD231PD vexp<>+VLN2L(SB), Y6, Y4

	// Reduce, then the same 7-step fused Taylor evaluation.
	VMULPD vexp<>+VSIXTEENTH(SB), Y0, Y0
	VMULPD vexp<>+VSIXTEENTH(SB), Y4, Y4
	VMOVUPD vexp<>+VC8(SB), Y3
	VMOVUPD vexp<>+VC8(SB), Y7
	VFMADD213PD vexp<>+VC7(SB), Y0, Y3
	VFMADD213PD vexp<>+VC7(SB), Y4, Y7
	VFMADD213PD vexp<>+VC6(SB), Y0, Y3
	VFMADD213PD vexp<>+VC6(SB), Y4, Y7
	VFMADD213PD vexp<>+VC5(SB), Y0, Y3
	VFMADD213PD vexp<>+VC5(SB), Y4, Y7
	VFMADD213PD vexp<>+VC4(SB), Y0, Y3
	VFMADD213PD vexp<>+VC4(SB), Y4, Y7
	VFMADD213PD vexp<>+VC3(SB), Y0, Y3
	VFMADD213PD vexp<>+VC3(SB), Y4, Y7
	VFMADD213PD vexp<>+VHALF(SB), Y0, Y3
	VFMADD213PD vexp<>+VHALF(SB), Y4, Y7
	VFMADD213PD Y10, Y0, Y3
	VFMADD213PD Y10, Y4, Y7
	VMULPD Y3, Y0, Y0
	VMULPD Y7, Y4, Y4

	// Undo the reduction: three rounds of x *= (x+2), then the final
	// fused x = (x+2)*x + 1.
	VADDPD vexp<>+VTWO(SB), Y0, Y3
	VADDPD vexp<>+VTWO(SB), Y4, Y7
	VMULPD Y3, Y0, Y0
	VMULPD Y7, Y4, Y4
	VADDPD vexp<>+VTWO(SB), Y0, Y3
	VADDPD vexp<>+VTWO(SB), Y4, Y7
	VMULPD Y3, Y0, Y0
	VMULPD Y7, Y4, Y4
	VADDPD vexp<>+VTWO(SB), Y0, Y3
	VADDPD vexp<>+VTWO(SB), Y4, Y7
	VMULPD Y3, Y0, Y0
	VMULPD Y7, Y4, Y4
	VADDPD vexp<>+VTWO(SB), Y0, Y3
	VADDPD vexp<>+VTWO(SB), Y4, Y7
	VFMADD213PD Y10, Y3, Y0
	VFMADD213PD Y10, Y7, Y4

	// ldexp: scale by 2**k through exponent-field arithmetic. |k| ≤ 87
	// on the clamped range, so k+bias is in (0, 0x7FF) and the scalar
	// code's denormal and overflow branches cannot trigger.
	VPMOVSXDQ X1, Y1
	VPMOVSXDQ X5, Y5
	VPADDQ vexp<>+VBIAS(SB), Y1, Y1
	VPADDQ vexp<>+VBIAS(SB), Y5, Y5
	VPSLLQ $52, Y1, Y1
	VPSLLQ $52, Y5, Y5
	VMULPD Y1, Y0, Y0
	VMULPD Y5, Y4, Y4

	// The sigmoid finish: 1 / (1 + e).
	VADDPD  Y10, Y0, Y0
	VADDPD  Y10, Y4, Y4
	VDIVPD  Y0, Y10, Y0
	VDIVPD  Y4, Y10, Y4
	VMOVUPD Y0, (SI)(BX*1)
	VMOVUPD Y4, (SI)(DX*1)
	ADDQ    $2, 64(SP)
	JMP     pair

done:
	VZEROUPPER
	MOVQ 64(SP), R14
	MOVQ R14, ret+80(FP)
	RET

// func cpuidLeaf(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidLeaf(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
