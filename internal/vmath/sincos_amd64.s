// Fused 4-lane sin+cos, lane-for-lane identical to math.Sin / math.Cos
// (the pure-Go Cody–Waite reduction in $GOROOT/src/math/sin.go) for
// every finite |x| < 2^29, the range where the stdlib skips its
// Payne–Hanek trigReduce. Per lane the kernel performs the stdlib's
// operations in the stdlib's order:
//
//   1. j = uint64(|x|·(4/π)), j += j&1, y = float64(j), j &= 7.
//      |x|·(4/π) < 2^31, so the 32-bit truncating convert is exact.
//   2. z = ((|x| − y·PI4A) − y·PI4B) − y·PI4C.
//   3. Both polynomials in zz = z·z, each multiply and add separate:
//      Go on amd64 fuses only explicit math.FMA, so no FMA here either.
//   4. The octant bits pick the result without branches: j is even, so
//      bit 1 says the stdlib evaluates the other polynomial (j&3 == 2),
//      cos is negated by bit 2 ^ bit 1, and sin by sign(x) ^ bit 2.
//
// IEEE-754 negation and selection are exact, so every lane reproduces
// the scalar bits. Taking sin's sign from x's sign bit keeps
// sin(−0) = −0: for ±0 the reduction yields z = +0, the sin polynomial
// +0 and the sign bit of x restores −0. NaN, ±Inf and |x| ≥ 2^29 fail
// the ordered range compare (the window); sinCosVec stops at the first
// group with such a lane and the caller finishes with the stdlib
// scalars.
//
// acrobotStepVec runs the whole Acrobot step of env's scalar
// Acrobot.Step on 4-lane groups with the same sin/cos: see its comment
// below.
//
// The constant table carries the exact bit patterns of the stdlib
// constants (4/π, PI4A–C, _sin, _cos) and of the constants the compiled
// Acrobot.Step uses, broadcast across 4 lanes.

#include "textflag.h"
#include "go_asm.h"

#define VABS 0 // sign-clear mask
#define VSIGN 32 // sign-bit mask
#define VLIMIT 64 // 2^29, math's reduceThreshold
#define VFOURPI 96 // 4/π
#define VPI4A 128 // π/4 split in three (PI4A, PI4B, PI4C)
#define VPI4B 160
#define VPI4C 192
#define VONE 224
#define VHALF 256
#define VSIN0 288 // _sin
#define VSIN1 320
#define VSIN2 352
#define VSIN3 384
#define VSIN4 416
#define VSIN5 448
#define VCOS0 480 // _cos
#define VCOS1 512
#define VCOS2 544
#define VCOS3 576
#define VCOS4 608
#define VCOS5 640
#define VIONE 672 // int32 1s, for j&1
#define VHALFPI 704 // π/2, acrobotTrigArgs' shift
#define VPI 736 // wrapAngle's bounds and step
#define VNEGPI 768
#define VTWOPI 800
#define VNEGONE 832 // the torque bound is ±1
#define VMAXV1 864 // ±4π, the θ1' bound
#define VNEGMAXV1 896
#define VMAXV2 928 // ±9π, the θ2' bound
#define VNEGMAXV2 960
#define VDT6 992 // dt/6
#define VD1 1024 // l1² + lc² = m·lc² + i = 1.25
#define VQUARTER 1056 // m·lc² = 0.25
#define VTWO 1088 // 2·i
#define VPHI2 1120 // m·lc·g
#define VNEGHALF 1152 // −m·l1·lc
#define VPHI1 1184 // (m·lc + m·l1)·g
#define VSTAGEH 1216 // acStageH by stage (the fourth is never read)
#define VSTAGEWT 1344 // acRK4Weight by stage (the first is never read)

#define VEC4(off, v) \
	DATA vsincos<>+off(SB)/8, v; \
	DATA vsincos<>+off+8(SB)/8, v; \
	DATA vsincos<>+off+16(SB)/8, v; \
	DATA vsincos<>+off+24(SB)/8, v

VEC4(VABS, $0x7FFFFFFFFFFFFFFF)
VEC4(VSIGN, $0x8000000000000000)
VEC4(VLIMIT, $0x41C0000000000000)
VEC4(VFOURPI, $0x3FF45F306DC9C883)
VEC4(VPI4A, $0x3FE921FB40000000)
VEC4(VPI4B, $0x3E64442D00000000)
VEC4(VPI4C, $0x3CE8469898CC5170)
VEC4(VONE, $0x3FF0000000000000)
VEC4(VHALF, $0x3FE0000000000000)
VEC4(VSIN0, $0x3DE5D8FD1FD19CCD)
VEC4(VSIN1, $0xBE5AE5E5A9291F5D)
VEC4(VSIN2, $0x3EC71DE3567D48A1)
VEC4(VSIN3, $0xBF2A01A019BFDF03)
VEC4(VSIN4, $0x3F8111111110F7D0)
VEC4(VSIN5, $0xBFC5555555555548)
VEC4(VCOS0, $0xBDA8FA49A0861A9B)
VEC4(VCOS1, $0x3E21EE9D7B4E3F05)
VEC4(VCOS2, $0xBE927E4F7EAC4BC6)
VEC4(VCOS3, $0x3EFA01A019C844F5)
VEC4(VCOS4, $0xBF56C16C16C14F91)
VEC4(VCOS5, $0x3FA555555555554B)
VEC4(VIONE, $0x0000000100000001)
VEC4(VHALFPI, $0x3FF921FB54442D18)
VEC4(VPI, $0x400921FB54442D18)
VEC4(VNEGPI, $0xC00921FB54442D18)
VEC4(VTWOPI, $0x401921FB54442D18)
VEC4(VNEGONE, $0xBFF0000000000000)
VEC4(VMAXV1, $0x402921FB54442D18)
VEC4(VNEGMAXV1, $0xC02921FB54442D18)
VEC4(VMAXV2, $0x403C463ABECCB2BB)
VEC4(VNEGMAXV2, $0xC03C463ABECCB2BB)
VEC4(VDT6, $0x3FA1111111111111)
VEC4(VD1, $0x3FF4000000000000)
VEC4(VQUARTER, $0x3FD0000000000000)
VEC4(VTWO, $0x4000000000000000)
VEC4(VPHI2, $0x401399999999999A)
VEC4(VNEGHALF, $0xBFE0000000000000)
VEC4(VPHI1, $0x402D666666666667)
VEC4(VSTAGEH, $0x3FB999999999999A)
VEC4(VSTAGEH+32, $0x3FB999999999999A)
VEC4(VSTAGEH+64, $0x3FC999999999999A)
VEC4(VSTAGEH+96, $0)
VEC4(VSTAGEWT, $0x3FF0000000000000)
VEC4(VSTAGEWT+32, $0x4000000000000000)
VEC4(VSTAGEWT+64, $0x4000000000000000)
VEC4(VSTAGEWT+96, $0x3FF0000000000000)
GLOBL vsincos<>(SB), RODATA|NOPTR, $1472

// WINDOW(x) sets the flags for JNE to take when any lane of x is
// outside the window: |x| < 2^29 is the stdlib's Cody–Waite branch,
// and the ordered compare also rejects NaN and ±Inf. It leaves |x| in
// Y1 and clobbers Y2 and DX.
#define WINDOW(x) \
	VANDPD    vsincos<>+VABS(SB), x, Y1; \
	VCMPPD    $0x11, vsincos<>+VLIMIT(SB), Y1, Y2; \
	VMOVMSKPD Y2, DX; \
	CMPL      DX, $0xF

// TRIG reduces x in Y0 (inside the window, |x| in Y1) and evaluates
// both polynomials: Y4 = z + (z·zz)·sinpoly, Y8 = (1 − zz/2) +
// (zz·zz)·cospoly, Y5 = the swap bit (1) and Y6 the reflect bit (2) of
// the octant, each in its lane's sign position. Keeps Y0; clobbers
// Y1–Y8 and Y10.
#define TRIG \
	VMULPD      vsincos<>+VFOURPI(SB), Y1, Y2; \
	VCVTTPD2DQY Y2, X2; \
	VPAND       vsincos<>+VIONE(SB), X2, X3; \
	VPADDD      X3, X2, X2; \
	VCVTDQ2PD   X2, Y3; \
	VPMOVZXDQ   X2, Y10; \
	VMULPD      vsincos<>+VPI4A(SB), Y3, Y4; \
	VSUBPD      Y4, Y1, Y1; \
	VMULPD      vsincos<>+VPI4B(SB), Y3, Y4; \
	VSUBPD      Y4, Y1, Y1; \
	VMULPD      vsincos<>+VPI4C(SB), Y3, Y4; \
	VSUBPD      Y4, Y1, Y1; \
	VMULPD      Y1, Y1, Y2; \
	VMOVUPD     vsincos<>+VSIN0(SB), Y3; \
	VMULPD      Y2, Y3, Y3; \
	VADDPD      vsincos<>+VSIN1(SB), Y3, Y3; \
	VMULPD      Y2, Y3, Y3; \
	VADDPD      vsincos<>+VSIN2(SB), Y3, Y3; \
	VMULPD      Y2, Y3, Y3; \
	VADDPD      vsincos<>+VSIN3(SB), Y3, Y3; \
	VMULPD      Y2, Y3, Y3; \
	VADDPD      vsincos<>+VSIN4(SB), Y3, Y3; \
	VMULPD      Y2, Y3, Y3; \
	VADDPD      vsincos<>+VSIN5(SB), Y3, Y3; \
	VMULPD      Y2, Y1, Y4; \
	VMULPD      Y3, Y4, Y4; \
	VADDPD      Y4, Y1, Y4; \
	VMOVUPD     vsincos<>+VCOS0(SB), Y5; \
	VMULPD      Y2, Y5, Y5; \
	VADDPD      vsincos<>+VCOS1(SB), Y5, Y5; \
	VMULPD      Y2, Y5, Y5; \
	VADDPD      vsincos<>+VCOS2(SB), Y5, Y5; \
	VMULPD      Y2, Y5, Y5; \
	VADDPD      vsincos<>+VCOS3(SB), Y5, Y5; \
	VMULPD      Y2, Y5, Y5; \
	VADDPD      vsincos<>+VCOS4(SB), Y5, Y5; \
	VMULPD      Y2, Y5, Y5; \
	VADDPD      vsincos<>+VCOS5(SB), Y5, Y5; \
	VMULPD      Y2, Y2, Y6; \
	VMULPD      Y5, Y6, Y6; \
	VMULPD      vsincos<>+VHALF(SB), Y2, Y7; \
	VMOVUPD     vsincos<>+VONE(SB), Y8; \
	VSUBPD      Y7, Y8, Y8; \
	VADDPD      Y6, Y8, Y8; \
	VPSLLQ      $62, Y10, Y5; \
	VPSLLQ      $61, Y10, Y6

// COS_OF(dst) and SIN_OF(dst) finish TRIG: dst = cos x or sin x, the
// polynomial the octant picks (VBLENDVPD reads the sign bit), negated
// by reflect ^ swap for cos and by sign(x) ^ reflect for sin. Each
// clobbers Y7.
#define COS_OF(dst) \
	VBLENDVPD Y5, Y4, Y8, dst; \
	VXORPD    Y5, Y6, Y7; \
	VANDPD    vsincos<>+VSIGN(SB), Y7, Y7; \
	VXORPD    Y7, dst, dst

#define SIN_OF(dst) \
	VBLENDVPD Y5, Y8, Y4, dst; \
	VXORPD    Y0, Y6, Y7; \
	VANDPD    vsincos<>+VSIGN(SB), Y7, Y7; \
	VXORPD    Y7, dst, dst

// func sinCosVec(sinDst, cosDst, src *float64, n int) int
TEXT ·sinCosVec(SB), NOSPLIT, $0-40
	MOVQ sinDst+0(FP), DI
	MOVQ cosDst+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), CX
	XORQ AX, AX
	SUBQ $3, CX // full 4-groups exist while AX < n-3
	JLE  done

loop:
	CMPQ    AX, CX
	JGE     done
	VMOVUPD (SI)(AX*8), Y0 // x
	WINDOW(Y0)
	JNE     done
	TRIG
	SIN_OF(Y9)
	COS_OF(Y11)
	VMOVUPD Y9, (DI)(AX*8)
	VMOVUPD Y11, (R8)(AX*8)
	ADDQ    $4, AX
	JMP     loop

done:
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET

// The RK4 state on the stack: the clamped torque and the running
// slope sums.
#define TQ 0
#define S1 32
#define S2 64
#define S3 96
#define S4 128

// func acrobotStepVec(groups *AcrobotGroup, n int)
//
// One Acrobot.Step (env/acrobot.go) for each of n groups of 4 lanes,
// the step's state kept in registers from its load to its store. Every
// packed operation is the twin of one scalar instruction of the
// compiled Step, acrobotDeriv and advance, with the constants the
// compiled code uses and, where both operands are variables, the same
// first operand, so that even a NaN keeps its payload. Stage s
// evaluates the trig of θ2 (cos and sin), θ2+θ1−π/2 and θ1−π/2 (cos
// only). A group with any trig argument outside the window, in any
// stage or in the observation, is marked Declined and its lanes are
// left unwritten; the caller runs them through the scalar Step.
TEXT ·acrobotStepVec(SB), NOSPLIT, $160-16
	MOVQ  groups+0(FP), DI
	MOVQ  n+8(FP), CX
	TESTQ CX, CX
	JLE   ret
	LEAQ  vsincos<>+VSTAGEH(SB), R10
	LEAQ  vsincos<>+VSTAGEWT(SB), R11

group:
	// torque = clamp(action, −1, 1). VMAXPD and VMINPD return their
	// second Intel source when the compare fails, so the action goes
	// second and NaN passes through, as clamp's two compares let it.
	VMOVUPD vsincos<>+VNEGONE(SB), Y0
	VMAXPD  AcrobotGroup_Torque(DI), Y0, Y0
	VMOVUPD vsincos<>+VONE(SB), Y1
	VMINPD  Y0, Y1, Y0
	VMOVUPD Y0, TQ(SP)
	VMOVUPD AcrobotGroup_Th1(DI), Y11  // x1, the stage's θ1
	VMOVUPD AcrobotGroup_Th2(DI), Y12  // x2
	VMOVUPD AcrobotGroup_Dth1(DI), Y14 // v1, the stage's θ1'
	VMOVUPD AcrobotGroup_Dth2(DI), Y15 // v2
	XORQ    R9, R9                     // the stage times 32

stage:
	// acrobotTrigArgs: x2, (x2 + x1) − π/2 and x1 − π/2.
	VADDPD  Y11, Y12, Y13
	VSUBPD  vsincos<>+VHALFPI(SB), Y13, Y13
	VSUBPD  vsincos<>+VHALFPI(SB), Y11, Y11
	VMOVAPD Y13, Y0
	WINDOW(Y0)
	JNE     declined
	TRIG
	COS_OF(Y13) // cos12
	VMOVAPD Y11, Y0
	WINDOW(Y0)
	JNE     declined
	TRIG
	COS_OF(Y11) // cos1
	VMOVAPD Y12, Y0
	WINDOW(Y0)
	JNE     declined
	TRIG
	COS_OF(Y12) // cos2
	SIN_OF(Y9)  // sin2

	// acrobotDeriv(v1, v2, torque, cos2, sin2, cos12, cos1), in the
	// compiled order: dd1 in Y2, dd2 in Y7.
	VADDPD  vsincos<>+VD1(SB), Y12, Y0
	VADDPD  vsincos<>+VQUARTER(SB), Y0, Y0
	VADDPD  vsincos<>+VTWO(SB), Y0, Y1     // d1
	VMULPD  vsincos<>+VHALF(SB), Y12, Y2
	VADDPD  vsincos<>+VQUARTER(SB), Y2, Y2
	VADDPD  vsincos<>+VONE(SB), Y2, Y2     // d2
	VMULPD  vsincos<>+VPHI2(SB), Y13, Y3   // phi2
	VMULPD  vsincos<>+VNEGHALF(SB), Y15, Y4
	VMULPD  Y15, Y4, Y4
	VMULPD  Y9, Y4, Y4                     // −m·l1·lc·v2·v2·sin2
	VMULPD  Y14, Y15, Y5
	VMULPD  Y9, Y5, Y5                     // 2·m·l1·lc·v2·v1·sin2
	VSUBPD  Y5, Y4, Y4
	VMULPD  vsincos<>+VPHI1(SB), Y11, Y5
	VADDPD  Y4, Y5, Y5
	VADDPD  Y3, Y5, Y5                     // phi1
	VDIVPD  Y1, Y2, Y6
	VMULPD  Y5, Y6, Y6
	VMOVUPD TQ(SP), Y7
	VADDPD  Y6, Y7, Y7                     // torque + d2/d1·phi1
	VMULPD  vsincos<>+VHALF(SB), Y14, Y8
	VMULPD  Y8, Y14, Y8
	VMULPD  Y9, Y8, Y8                     // m·l1·lc·v1·v1·sin2
	VSUBPD  Y8, Y7, Y7
	VSUBPD  Y3, Y7, Y7
	VMULPD  Y2, Y2, Y8
	VDIVPD  Y1, Y8, Y8
	VMOVUPD vsincos<>+VD1(SB), Y10
	VSUBPD  Y8, Y10, Y10
	VDIVPD  Y10, Y7, Y7                    // dd2
	VMULPD  Y7, Y2, Y2
	VADDPD  Y5, Y2, Y2
	VXORPD  vsincos<>+VSIGN(SB), Y2, Y2
	VDIVPD  Y1, Y2, Y2                     // dd1

	// The slope sum: the first stage's slopes, then s += wt·slope.
	TESTQ   R9, R9
	JNE     accumulate
	VMOVUPD Y14, S1(SP)
	VMOVUPD Y15, S2(SP)
	VMOVUPD Y2, S3(SP)
	VMOVUPD Y7, S4(SP)
	JMP     next

accumulate:
	VMOVUPD (R11)(R9*1), Y3 // wt
	VMULPD  Y3, Y14, Y4
	VADDPD  S1(SP), Y4, Y4
	VMOVUPD Y4, S1(SP)
	VMULPD  Y3, Y15, Y5
	VADDPD  S2(SP), Y5, Y5
	VMOVUPD Y5, S2(SP)
	VMULPD  Y3, Y2, Y6
	VMOVUPD S3(SP), Y8
	VADDPD  Y6, Y8, Y8
	VMOVUPD Y8, S3(SP)
	VMULPD  Y7, Y3, Y3
	VMOVUPD S4(SP), Y8
	VADDPD  Y3, Y8, Y8
	VMOVUPD Y8, S4(SP)

next:
	// The next stage's state is the step's start plus h times this
	// stage's slopes; the last stage has none.
	CMPQ    R9, $96
	JEQ     finish
	VMOVUPD (R10)(R9*1), Y3 // h
	VMULPD  Y3, Y14, Y11
	VADDPD  AcrobotGroup_Th1(DI), Y11, Y11
	VMULPD  Y3, Y15, Y12
	VADDPD  AcrobotGroup_Th2(DI), Y12, Y12
	VMULPD  Y3, Y2, Y14
	VADDPD  AcrobotGroup_Dth1(DI), Y14, Y14
	VMULPD  Y7, Y3, Y15
	VADDPD  AcrobotGroup_Dth2(DI), Y15, Y15
	ADDQ    $32, R9
	JMP     stage

finish:
	// advance: θ += dt/6·s, wrapped into [−π, π] (every lane that is
	// above π steps down until it is not, then every lane below −π
	// steps up, as wrapAngle's two loops do), and θ' += dt/6·s,
	// clamped.
	VMOVUPD S1(SP), Y11
	VMULPD  vsincos<>+VDT6(SB), Y11, Y11
	VADDPD  AcrobotGroup_Th1(DI), Y11, Y11
	VMOVUPD S2(SP), Y12
	VMULPD  vsincos<>+VDT6(SB), Y12, Y12
	VADDPD  AcrobotGroup_Th2(DI), Y12, Y12

wrapdown:
	VCMPPD    $0x1E, vsincos<>+VPI(SB), Y11, Y0 // GT_OQ
	VCMPPD    $0x1E, vsincos<>+VPI(SB), Y12, Y1
	VORPD     Y1, Y0, Y2
	VMOVMSKPD Y2, DX
	TESTL     DX, DX
	JEQ       wrapup
	VSUBPD    vsincos<>+VTWOPI(SB), Y11, Y2
	VBLENDVPD Y0, Y2, Y11, Y11
	VSUBPD    vsincos<>+VTWOPI(SB), Y12, Y2
	VBLENDVPD Y1, Y2, Y12, Y12
	JMP       wrapdown

wrapup:
	VCMPPD    $0x11, vsincos<>+VNEGPI(SB), Y11, Y0 // LT_OQ
	VCMPPD    $0x11, vsincos<>+VNEGPI(SB), Y12, Y1
	VORPD     Y1, Y0, Y2
	VMOVMSKPD Y2, DX
	TESTL     DX, DX
	JEQ       wrapped
	VADDPD    vsincos<>+VTWOPI(SB), Y11, Y2
	VBLENDVPD Y0, Y2, Y11, Y11
	VADDPD    vsincos<>+VTWOPI(SB), Y12, Y2
	VBLENDVPD Y1, Y2, Y12, Y12
	JMP       wrapup

wrapped:
	VMOVUPD S3(SP), Y14
	VMULPD  vsincos<>+VDT6(SB), Y14, Y14
	VADDPD  AcrobotGroup_Dth1(DI), Y14, Y14
	VMOVUPD vsincos<>+VNEGMAXV1(SB), Y0
	VMAXPD  Y14, Y0, Y14
	VMOVUPD vsincos<>+VMAXV1(SB), Y0
	VMINPD  Y14, Y0, Y14
	VMOVUPD vsincos<>+VDT6(SB), Y15
	VMULPD  S4(SP), Y15, Y15
	VADDPD  AcrobotGroup_Dth2(DI), Y15, Y15
	VMOVUPD vsincos<>+VNEGMAXV2(SB), Y0
	VMAXPD  Y15, Y0, Y15
	VMOVUPD vsincos<>+VMAXV2(SB), Y0
	VMINPD  Y15, Y0, Y15

	// The observation's θ1 and θ2 and the done test's θ2+θ1 must be in
	// the window too; after these checks the group is written.
	VADDPD  Y11, Y12, Y13
	WINDOW(Y11)
	JNE     declined
	WINDOW(Y12)
	JNE     declined
	WINDOW(Y13)
	JNE     declined
	VMOVUPD Y11, AcrobotGroup_Th1(DI)
	VMOVUPD Y12, AcrobotGroup_Th2(DI)
	VMOVUPD Y14, AcrobotGroup_Dth1(DI)
	VMOVUPD Y15, AcrobotGroup_Dth2(DI)
	VMOVAPD Y13, Y0
	VANDPD  vsincos<>+VABS(SB), Y0, Y1
	TRIG
	COS_OF(Y9)
	VMOVUPD Y9, AcrobotGroup_Cos21(DI)
	VMOVAPD Y11, Y0
	VANDPD  vsincos<>+VABS(SB), Y0, Y1
	TRIG
	COS_OF(Y9)
	VMOVUPD Y9, AcrobotGroup_Cos1(DI)
	SIN_OF(Y9)
	VMOVUPD Y9, AcrobotGroup_Sin1(DI)
	VMOVAPD Y12, Y0
	VANDPD  vsincos<>+VABS(SB), Y0, Y1
	TRIG
	COS_OF(Y9)
	VMOVUPD Y9, AcrobotGroup_Cos2(DI)
	SIN_OF(Y9)
	VMOVUPD Y9, AcrobotGroup_Sin2(DI)
	MOVB    $0, AcrobotGroup_Declined(DI)
	JMP     nextgroup

declined:
	MOVB $1, AcrobotGroup_Declined(DI)

nextgroup:
	ADDQ $AcrobotGroup__size, DI
	DECQ CX
	JNE  group

ret:
	VZEROUPPER
	RET
