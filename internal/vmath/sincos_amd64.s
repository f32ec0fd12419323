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
// mountainCarStepVec, lunarLanderStepVec and acrobotStepVec run the
// whole step of env's scalar MountainCar.Step, LunarLander.Step and
// Acrobot.Step on 4-lane groups with the same sin/cos: see their
// comments below.
//
// The constant table carries the exact bit patterns of the stdlib
// constants (4/π, PI4A–C, _sin, _cos) and of the constants the compiled
// steps use, broadcast across 4 lanes.

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
#define VQONE 1472 // int64 1s, a step
#define VIOTA 1504 // int64 lane numbers 0–3
#define VTHREE 1536 // MountainCar: cos(3·pos)
#define VMCFORCE 1568 // the push
#define VMCGRAVITY 1600
#define VMCSPEED 1632 // ±0.07, the speed bound
#define VMCNEGSPEED 1664
#define VMCMINPOS 1696 // −1.2, the left wall
#define VSIXTENTHS 1728 // MountainCar's right bound, LunarLander's side thrust
#define VMCLAST 1760 // int64 budget − 1
#define VNEGSIXTENTHS 1792 // LunarLander: −side thrust
#define VDT 1824 // dt
#define VNEGMAIN 1856 // ±main thrust
#define VMAIN 1888
#define VTORQUE 1920 // side torque
#define VSIDEFUEL 1952
#define VMAINFUEL 1984
#define VGRAVDT 2016 // gravity·dt, folded
#define VDAMP 2048 // rotational damping
#define VNEGSAFEVY 2080 // touchdown speed limit
#define VPADHALF 2112
#define VFLYY 2144 // the playfield's top
#define VHUNDRED 2176 // ±100, the bonus and the potential's weight
#define VNEGHUNDRED 2208
#define VTEN 2240 // a leg's contact bonus
#define VLLLAST 2272 // int64 budget − 1
#define VACLAST 2304 // Acrobot: int64 budget − 1

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
VEC4(VQONE, $1)
DATA vsincos<>+VIOTA(SB)/8, $0
DATA vsincos<>+VIOTA+8(SB)/8, $1
DATA vsincos<>+VIOTA+16(SB)/8, $2
DATA vsincos<>+VIOTA+24(SB)/8, $3
VEC4(VTHREE, $0x4008000000000000)
VEC4(VMCFORCE, $0x3F50624DD2F1A9FC)
VEC4(VMCGRAVITY, $0x3F647AE147AE147B)
VEC4(VMCSPEED, $0x3FB1EB851EB851EC)
VEC4(VMCNEGSPEED, $0xBFB1EB851EB851EC)
VEC4(VMCMINPOS, $0xBFF3333333333333)
VEC4(VSIXTENTHS, $0x3FE3333333333333)
VEC4(VMCLAST, $199)
VEC4(VNEGSIXTENTHS, $0xBFE3333333333333)
VEC4(VDT, $0x3F9999999999999A)
VEC4(VNEGMAIN, $0xC00C000000000000)
VEC4(VMAIN, $0x400C000000000000)
VEC4(VTORQUE, $0x3FBEB851EB851EB8)
VEC4(VSIDEFUEL, $0x3F9EB851EB851EB8)
VEC4(VMAINFUEL, $0x3FD3333333333333)
VEC4(VGRAVDT, $0xBFA4DD2F1A9FBE77)
VEC4(VDAMP, $0x3FEFAE147AE147AE)
VEC4(VNEGSAFEVY, $0xBFD3333333333333)
VEC4(VPADHALF, $0x3FC999999999999A)
VEC4(VFLYY, $0x3FF8000000000000)
VEC4(VHUNDRED, $0x4059000000000000)
VEC4(VNEGHUNDRED, $0xC059000000000000)
VEC4(VTEN, $0x4024000000000000)
VEC4(VLLLAST, $399)
VEC4(VACLAST, $499)
GLOBL vsincos<>(SB), RODATA|NOPTR, $2336

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

// The step kernels share one register plan for the planes: DI is the
// group, SI, R8 and R13 the group's first lane in the observation,
// reward and action planes, R12 its first done flag, BX the stride in
// bytes, and CX the lanes left from the group's first. DX and AX are
// scratch. A whole group (CX ≥ 4) reads and writes the planes with
// plain loads and stores; a partial last group masks them with its
// active lanes, so no lane at or past active is touched. A group's own
// state rows are written whole, each inactive lane blended back to the
// value it had: a masked store forwards to no later load, and the next
// step loads these rows at once.

// LANES(m, xm) sets m (xm its low half) to the group's active lanes,
// every bit of lane l set when l < CX.
#define LANES(m, xm) \
	VMOVQ        CX, xm; \
	VPBROADCASTQ xm, m; \
	VPCMPGTQ     vsincos<>+VIOTA(SB), m, m

// INACTIVE(m, im) sets im to the lanes the active mask m leaves out.
#define INACTIVE(m, im) \
	VPCMPEQQ im, im, im; \
	VPXOR    m, im, im

// PUTROW(im, v, row) writes v to a state row whole, keeping the row's
// own value in the lanes of im (INACTIVE's mask); v takes those values
// too.
#define PUTROW(im, v, row) \
	VBLENDVPD im, row, v, v; \
	VMOVUPD   v, row

// DONE(m) writes the done flags of the group's active lanes from the
// lane mask m, one bool byte each: all four at once in a whole group,
// one by one in a partial last group. Clobbers AX and DX.
#define DONE(m) \
	VMOVMSKPD m, DX; \
	IMUL3L    $0x00204081, DX, DX; \
	ANDL      $0x01010101, DX; \
	CMPQ      CX, $4; \
	JLT       donepart; \
	MOVL      DX, (R12); \
	JMP       donewritten; \
donepart: \
	XORQ      AX, AX; \
donebyte: \
	MOVB      DX, (R12)(AX*1); \
	SHRL      $8, DX; \
	INCQ      AX; \
	CMPQ      AX, CX; \
	JLT       donebyte; \
donewritten:

// NEXTGROUP(size) moves the plan to the next group of that size.
#define NEXTGROUP(size) \
	ADDQ $size, DI; \
	ADDQ $32, SI; \
	ADDQ $32, R8; \
	ADDQ $4, R12; \
	ADDQ $32, R13; \
	SUBQ $4, CX

// func mountainCarStepVec(groups *MountainCarGroup, obs, rewards *float64, done *bool, actions *float64, stride, active int)
//
// One MountainCar.Step (env/mountaincar.go) for each active lane, the
// twin of the compiled Step and advance instruction by instruction with
// their constants. argmax keeps the first maximum under >, so NaN never
// wins; the clamps are VMAXPD and VMINPD with the value as the second
// Intel source, which they return when the compare fails, so NaN passes
// as clamp lets it; each if becomes a compare and a pick of the value
// the branch leaves.
TEXT ·mountainCarStepVec(SB), NOSPLIT, $0-56
	MOVQ  groups+0(FP), DI
	MOVQ  obs+8(FP), SI
	MOVQ  rewards+16(FP), R8
	MOVQ  done+24(FP), R12
	MOVQ  actions+32(FP), R13
	MOVQ  stride+40(FP), BX
	SHLQ  $3, BX
	MOVQ  active+48(FP), CX
	TESTQ CX, CX
	JLE   mcret

mcgroup:
	LANES(Y15, X15)
	VMOVUPD MountainCarGroup_Pos(DI), Y12
	VMULPD  vsincos<>+VTHREE(SB), Y12, Y0 // 3·pos
	VANDPD  Y15, Y0, Y0                   // +0 in inactive lanes
	WINDOW(Y0)
	JNE     mcdeclined
	TRIG
	COS_OF(Y9)
	VMULPD  vsincos<>+VMCGRAVITY(SB), Y9, Y9

	// argmax: a1 > a0, then a2 > the better; a − 1 as a float (−1, +0
	// where a1 won, 1 where a2 won) times the push.
	CMPQ       CX, $4
	JLT        mcpartin
	VMOVUPD    (R13), Y0
	VMOVUPD    (R13)(BX*1), Y1
	VMOVUPD    (R13)(BX*2), Y2
	JMP        mcin

mcpartin:
	VMASKMOVPD (R13), Y15, Y0
	VMASKMOVPD (R13)(BX*1), Y15, Y1
	VMASKMOVPD (R13)(BX*2), Y15, Y2

mcin:
	VCMPPD    $0x1E, Y0, Y1, Y3 // GT_OQ
	VBLENDVPD Y3, Y1, Y0, Y0
	VCMPPD    $0x1E, Y0, Y2, Y4
	VMOVUPD   vsincos<>+VNEGONE(SB), Y5
	VANDNPD   Y5, Y3, Y5
	VBLENDVPD Y4, vsincos<>+VONE(SB), Y5, Y5
	VMULPD    vsincos<>+VMCFORCE(SB), Y5, Y5

	// advance: vel, clamped; pos += vel, clamped; the wall stops a car
	// moving left; the highest position; the step.
	VSUBPD   Y9, Y5, Y5
	VADDPD   MountainCarGroup_Vel(DI), Y5, Y5
	VMOVUPD  vsincos<>+VMCNEGSPEED(SB), Y6
	VMAXPD   Y5, Y6, Y5
	VMOVUPD  vsincos<>+VMCSPEED(SB), Y6
	VMINPD   Y5, Y6, Y5                          // vel
	VADDPD   Y5, Y12, Y12
	VMOVUPD  vsincos<>+VMCMINPOS(SB), Y6
	VMAXPD   Y12, Y6, Y12
	VMOVUPD  vsincos<>+VSIXTENTHS(SB), Y7
	VMINPD   Y12, Y7, Y12                        // pos
	VCMPPD   $0x12, Y6, Y12, Y3                  // LE_OQ: pos <= the wall
	VXORPD   Y4, Y4, Y4
	VCMPPD   $0x11, Y4, Y5, Y4                   // LT_OQ: vel < 0
	VANDPD   Y4, Y3, Y3
	VANDNPD  Y5, Y3, Y5                          // vel = +0 there
	VMOVUPD  MountainCarGroup_MaxPos(DI), Y6
	VMAXPD   Y6, Y12, Y6                         // pos > maxPos picks pos
	VMOVDQU  MountainCarGroup_Steps(DI), Y7
	VPADDQ   vsincos<>+VQONE(SB), Y7, Y7
	VCMPPD   $0x1D, vsincos<>+VHALF(SB), Y12, Y3 // GE_OQ: pos >= the goal
	VPCMPGTQ vsincos<>+VMCLAST(SB), Y7, Y4       // steps >= the budget
	VORPD    Y4, Y3, Y3

	INACTIVE(Y15, Y8)
	PUTROW(Y8, Y12, MountainCarGroup_Pos(DI))
	PUTROW(Y8, Y5, MountainCarGroup_Vel(DI))
	PUTROW(Y8, Y6, MountainCarGroup_MaxPos(DI))
	PUTROW(Y8, Y7, MountainCarGroup_Steps(DI))
	DONE(Y3)
	VMOVUPD    vsincos<>+VNEGONE(SB), Y4
	CMPQ       CX, $4
	JLT        mcpartout
	VMOVUPD    Y12, (SI)
	VMOVUPD    Y5, (SI)(BX*1)
	VMOVUPD    Y4, (R8)
	JMP        mcout

mcpartout:
	VMASKMOVPD Y12, Y15, (SI)
	VMASKMOVPD Y5, Y15, (SI)(BX*1)
	VMASKMOVPD Y4, Y15, (R8)

mcout:
	MOVB $0, MountainCarGroup_Declined(DI)
	JMP  mcnext

mcdeclined:
	MOVB $1, MountainCarGroup_Declined(DI)

mcnext:
	NEXTGROUP(MountainCarGroup__size)
	JGT mcgroup

mcret:
	VZEROUPPER
	RET

// func lunarLanderStepVec(groups *LunarLanderGroup, obs, rewards *float64, done *bool, actions *float64, stride, active int)
//
// One LunarLander.Step (env/lunarlander.go) of a running episode for
// each active lane, the twin of the compiled Step and advance as
// mountainCarStepVec is of its own. Every branch of advance runs and a
// blend picks each lane's value; a blend never adds a zero, so −0
// survives. The potential the step starts from is the group's Shaping,
// so shaping runs once, on the new state.
TEXT ·lunarLanderStepVec(SB), NOSPLIT, $0-56
	MOVQ  groups+0(FP), DI
	MOVQ  obs+8(FP), SI
	MOVQ  rewards+16(FP), R8
	MOVQ  done+24(FP), R12
	MOVQ  actions+32(FP), R13
	MOVQ  stride+40(FP), BX
	SHLQ  $3, BX
	MOVQ  active+48(FP), CX
	LEAQ  (BX)(BX*2), R9 // three rows
	TESTQ CX, CX
	JLE   llret

llgroup:
	LANES(Y15, X15)
	VANDPD    LunarLanderGroup_Angle(DI), Y15, Y0 // +0 in inactive lanes
	WINDOW(Y0)
	JNE       lldeclined
	TRIG
	COS_OF(Y9)
	SIN_OF(Y11)

	// argmax over four rows, then one mask per thruster: Y4 left (1),
	// Y5 main (2), Y6 right (3).
	CMPQ       CX, $4
	JLT        llpartin
	VMOVUPD    (R13), Y0
	VMOVUPD    (R13)(BX*1), Y1
	VMOVUPD    (R13)(BX*2), Y2
	VMOVUPD    (R13)(R9*1), Y3
	JMP        llin

llpartin:
	VMASKMOVPD (R13), Y15, Y0
	VMASKMOVPD (R13)(BX*1), Y15, Y1
	VMASKMOVPD (R13)(BX*2), Y15, Y2
	VMASKMOVPD (R13)(R9*1), Y15, Y3

llin:
	VCMPPD    $0x1E, Y0, Y1, Y4 // GT_OQ
	VBLENDVPD Y4, Y1, Y0, Y0
	VCMPPD    $0x1E, Y0, Y2, Y5
	VBLENDVPD Y5, Y2, Y0, Y0
	VCMPPD    $0x1E, Y0, Y3, Y6
	VORPD     Y5, Y6, Y7
	VANDNPD   Y4, Y7, Y4
	VANDNPD   Y5, Y6, Y5

	// The thrusters: vx by each, vy by the main engine, vA by the side
	// ones, and the fuel.
	VMULPD    vsincos<>+VSIXTENTHS(SB), Y9, Y7
	VMULPD    vsincos<>+VDT(SB), Y7, Y7
	VADDPD    LunarLanderGroup_Vx(DI), Y7, Y7
	VMULPD    vsincos<>+VNEGMAIN(SB), Y11, Y8
	VMULPD    vsincos<>+VDT(SB), Y8, Y8
	VADDPD    LunarLanderGroup_Vx(DI), Y8, Y8
	VMULPD    vsincos<>+VMAIN(SB), Y9, Y10
	VMULPD    vsincos<>+VDT(SB), Y10, Y10
	VADDPD    LunarLanderGroup_Vy(DI), Y10, Y10
	VMULPD    vsincos<>+VNEGSIXTENTHS(SB), Y9, Y12
	VMULPD    vsincos<>+VDT(SB), Y12, Y12
	VADDPD    LunarLanderGroup_Vx(DI), Y12, Y12
	VMOVUPD   LunarLanderGroup_Vx(DI), Y13
	VBLENDVPD Y4, Y7, Y13, Y13
	VBLENDVPD Y5, Y8, Y13, Y13
	VBLENDVPD Y6, Y12, Y13, Y13 // vx
	VMOVUPD   LunarLanderGroup_Vy(DI), Y14
	VBLENDVPD Y5, Y10, Y14, Y14
	VMOVUPD   LunarLanderGroup_VA(DI), Y7
	VSUBPD    vsincos<>+VTORQUE(SB), Y7, Y8
	VADDPD    vsincos<>+VTORQUE(SB), Y7, Y10
	VBLENDVPD Y4, Y8, Y7, Y7
	VBLENDVPD Y6, Y10, Y7, Y7 // vA
	VORPD     Y4, Y6, Y8
	VANDPD    vsincos<>+VSIDEFUEL(SB), Y8, Y8
	VANDPD    vsincos<>+VMAINFUEL(SB), Y5, Y10
	VORPD     Y10, Y8, Y8 // fuel, +0 when coasting

	// Gravity, the integration, damping and the step.
	VADDPD  vsincos<>+VGRAVDT(SB), Y14, Y14
	VMULPD  vsincos<>+VDT(SB), Y13, Y0
	VADDPD  LunarLanderGroup_X(DI), Y0, Y0 // x
	VMULPD  vsincos<>+VDT(SB), Y14, Y1
	VADDPD  LunarLanderGroup_Y(DI), Y1, Y1 // y
	VMULPD  vsincos<>+VDT(SB), Y7, Y2
	VADDPD  LunarLanderGroup_Angle(DI), Y2, Y2 // angle
	VMULPD  vsincos<>+VDAMP(SB), Y7, Y7
	VMOVDQU LunarLanderGroup_Steps(DI), Y3
	VPADDQ  vsincos<>+VQONE(SB), Y3, Y3

	// shaping's velocity term, 100·√(vy² + vx²), from the velocities
	// before a landing zeroes them; a landed lane's is +0, as the
	// zeroed velocities give.
	VMULPD  Y13, Y13, Y9
	VMULPD  Y14, Y14, Y12
	VADDPD  Y9, Y12, Y12
	VSQRTPD Y12, Y12
	VMULPD  vsincos<>+VHUNDRED(SB), Y12, Y12

	// The ground (y <= 0): y = +0; a soft touchdown on the pad lands,
	// zeroing the velocities, anything else crashes. Y6 lands, Y10
	// crashes, Y11 is the reward so far.
	VXORPD  Y4, Y4, Y4
	VCMPPD  $0x12, Y4, Y1, Y5 // LE_OQ
	VANDNPD Y1, Y5, Y1
	VCMPPD  $0x1D, vsincos<>+VNEGSAFEVY(SB), Y14, Y6 // GE_OQ
	VANDPD  vsincos<>+VABS(SB), Y2, Y9
	VCMPPD  $0x12, vsincos<>+VQUARTER(SB), Y9, Y10
	VANDPD  vsincos<>+VABS(SB), Y0, Y9 // |x|
	VCMPPD  $0x12, vsincos<>+VPADHALF(SB), Y9, Y11
	VANDPD  Y10, Y6, Y6
	VANDPD  Y11, Y6, Y6
	VANDPD  Y5, Y6, Y6
	VANDNPD Y5, Y6, Y10
	VANDNPD Y13, Y6, Y13
	VANDNPD Y14, Y6, Y14
	VANDNPD Y7, Y6, Y7
	VANDNPD Y12, Y6, Y12
	VANDPD  vsincos<>+VHUNDRED(SB), Y6, Y11
	VANDPD  vsincos<>+VNEGHUNDRED(SB), Y10, Y5
	VORPD   Y5, Y11, Y11

	// Out of the playfield: a crash.
	VCMPPD    $0x1E, vsincos<>+VONE(SB), Y9, Y4 // GT_OQ
	VCMPPD    $0x1E, vsincos<>+VFLYY(SB), Y1, Y5
	VORPD     Y5, Y4, Y4
	VSUBPD    vsincos<>+VHUNDRED(SB), Y11, Y5
	VBLENDVPD Y4, Y5, Y11, Y11
	VORPD     Y4, Y10, Y10

	// The state but the potential, and the done flags: the episode ends
	// on a landing, a crash or the budget.
	INACTIVE(Y15, Y9)
	PUTROW(Y9, Y0, LunarLanderGroup_X(DI))
	PUTROW(Y9, Y1, LunarLanderGroup_Y(DI))
	PUTROW(Y9, Y13, LunarLanderGroup_Vx(DI))
	PUTROW(Y9, Y14, LunarLanderGroup_Vy(DI))
	PUTROW(Y9, Y2, LunarLanderGroup_Angle(DI))
	PUTROW(Y9, Y7, LunarLanderGroup_VA(DI))
	PUTROW(Y9, Y3, LunarLanderGroup_Steps(DI))
	VORPD    LunarLanderGroup_Landed(DI), Y6, Y4
	PUTROW(Y9, Y4, LunarLanderGroup_Landed(DI))
	VORPD    LunarLanderGroup_Crashed(DI), Y10, Y4
	PUTROW(Y9, Y4, LunarLanderGroup_Crashed(DI))
	VORPD    LunarLanderGroup_Leg1(DI), Y6, Y4
	PUTROW(Y9, Y4, LunarLanderGroup_Leg1(DI))
	VORPD    LunarLanderGroup_Leg2(DI), Y6, Y5
	PUTROW(Y9, Y5, LunarLanderGroup_Leg2(DI))
	VPCMPGTQ vsincos<>+VLLLAST(SB), Y3, Y3
	VORPD    Y6, Y3, Y3
	VORPD    Y10, Y3, Y3
	DONE(Y3)

	// shaping: −100·√(y² + x²) − the velocity term − 100·|angle|, +10
	// per leg; reward += shaping − the last, then −= fuel.
	VMULPD    Y0, Y0, Y3
	VMULPD    Y1, Y1, Y6
	VADDPD    Y3, Y6, Y6
	VSQRTPD   Y6, Y6
	VMULPD    vsincos<>+VNEGHUNDRED(SB), Y6, Y6
	VSUBPD    Y12, Y6, Y6
	VANDPD    vsincos<>+VABS(SB), Y2, Y3
	VMULPD    vsincos<>+VHUNDRED(SB), Y3, Y3
	VSUBPD    Y3, Y6, Y6
	VADDPD    vsincos<>+VTEN(SB), Y6, Y3
	VBLENDVPD Y4, Y3, Y6, Y6
	VADDPD    vsincos<>+VTEN(SB), Y6, Y3
	VBLENDVPD Y5, Y3, Y6, Y6
	VSUBPD    LunarLanderGroup_Shaping(DI), Y6, Y3
	VADDPD    Y3, Y11, Y11
	VSUBPD    Y8, Y11, Y11
	PUTROW(Y9, Y6, LunarLanderGroup_Shaping(DI))

	// The observation (the legs as 1 or 0) and the reward.
	VANDPD     vsincos<>+VONE(SB), Y4, Y4
	VANDPD     vsincos<>+VONE(SB), Y5, Y5
	LEAQ       (SI)(BX*4), R10
	CMPQ       CX, $4
	JLT        llpartout
	VMOVUPD    Y0, (SI)
	VMOVUPD    Y1, (SI)(BX*1)
	VMOVUPD    Y13, (SI)(BX*2)
	VMOVUPD    Y14, (SI)(R9*1)
	VMOVUPD    Y2, (R10)
	VMOVUPD    Y7, (R10)(BX*1)
	VMOVUPD    Y4, (R10)(BX*2)
	VMOVUPD    Y5, (R10)(R9*1)
	VMOVUPD    Y11, (R8)
	JMP        llout

llpartout:
	VMASKMOVPD Y0, Y15, (SI)
	VMASKMOVPD Y1, Y15, (SI)(BX*1)
	VMASKMOVPD Y13, Y15, (SI)(BX*2)
	VMASKMOVPD Y14, Y15, (SI)(R9*1)
	VMASKMOVPD Y2, Y15, (R10)
	VMASKMOVPD Y7, Y15, (R10)(BX*1)
	VMASKMOVPD Y4, Y15, (R10)(BX*2)
	VMASKMOVPD Y5, Y15, (R10)(R9*1)
	VMASKMOVPD Y11, Y15, (R8)

llout:
	MOVB $0, LunarLanderGroup_Declined(DI)
	JMP  llnext

lldeclined:
	MOVB $1, LunarLanderGroup_Declined(DI)

llnext:
	NEXTGROUP(LunarLanderGroup__size)
	JGT llgroup

llret:
	VZEROUPPER
	RET

// The RK4 state on the stack: the clamped torque, the running slope
// sums, the step's start state (a zero state in inactive lanes) and the
// active lanes.
#define TQ 0
#define S1 32
#define S2 64
#define S3 96
#define S4 128
#define TH1 160
#define TH2 192
#define DTH1 224
#define DTH2 256
#define LANEMASK 288

// func acrobotStepVec(groups *AcrobotGroup, obs, rewards *float64, done *bool, actions *float64, stride, active int)
//
// One Acrobot.Step (env/acrobot.go) for each active lane, the step's
// state kept in registers from its load to its store. Every packed
// operation is the twin of one scalar instruction of the compiled Step,
// acrobotDeriv, advance and acrobotDone, with the constants the
// compiled code uses and, where both operands are variables, the same
// first operand, so that even a NaN keeps its payload. Stage s
// evaluates the trig of θ2 (cos and sin), θ2+θ1−π/2 and θ1−π/2 (cos
// only). A group with any trig argument outside the window, in any
// stage or in the observation, is marked Declined and its lanes are
// left unwritten; the caller runs them through the scalar Step.
TEXT ·acrobotStepVec(SB), NOSPLIT, $320-56
	MOVQ  groups+0(FP), DI
	MOVQ  obs+8(FP), SI
	MOVQ  rewards+16(FP), R8
	MOVQ  done+24(FP), R12
	MOVQ  actions+32(FP), R13
	MOVQ  stride+40(FP), BX
	SHLQ  $3, BX
	MOVQ  active+48(FP), CX
	TESTQ CX, CX
	JLE   ret
	LEAQ  vsincos<>+VSTAGEH(SB), R10
	LEAQ  vsincos<>+VSTAGEWT(SB), R11

group:
	LANES(Y0, X0)
	VMOVUPD Y0, LANEMASK(SP)

	// torque = clamp(action, −1, 1). VMAXPD and VMINPD return their
	// second Intel source when the compare fails, so the action goes
	// second and NaN passes through, as clamp's two compares let it.
	CMPQ       CX, $4
	JLT        partin
	VMOVUPD    (R13), Y1
	JMP        in

partin:
	VMASKMOVPD (R13), Y0, Y1

in:
	VMOVUPD    vsincos<>+VNEGONE(SB), Y2
	VMAXPD     Y1, Y2, Y1
	VMOVUPD    vsincos<>+VONE(SB), Y2
	VMINPD     Y1, Y2, Y1
	VMOVUPD    Y1, TQ(SP)
	VANDPD     AcrobotGroup_Th1(DI), Y0, Y11  // x1, the stage's θ1
	VMOVUPD    Y11, TH1(SP)
	VANDPD     AcrobotGroup_Th2(DI), Y0, Y12  // x2
	VMOVUPD    Y12, TH2(SP)
	VANDPD     AcrobotGroup_Dth1(DI), Y0, Y14 // v1, the stage's θ1'
	VMOVUPD    Y14, DTH1(SP)
	VANDPD     AcrobotGroup_Dth2(DI), Y0, Y15 // v2
	VMOVUPD    Y15, DTH2(SP)
	XORQ       R9, R9                         // the stage times 32

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
	VADDPD  TH1(SP), Y11, Y11
	VMULPD  Y3, Y15, Y12
	VADDPD  TH2(SP), Y12, Y12
	VMULPD  Y3, Y2, Y14
	VADDPD  DTH1(SP), Y14, Y14
	VMULPD  Y7, Y3, Y15
	VADDPD  DTH2(SP), Y15, Y15
	ADDQ    $32, R9
	JMP     stage

finish:
	// advance: θ += dt/6·s, wrapped into [−π, π] (every lane that is
	// above π steps down until it is not, then every lane below −π
	// steps up, as wrapAngle's two loops do), and θ' += dt/6·s,
	// clamped.
	VMOVUPD S1(SP), Y11
	VMULPD  vsincos<>+VDT6(SB), Y11, Y11
	VADDPD  TH1(SP), Y11, Y11
	VMOVUPD S2(SP), Y12
	VMULPD  vsincos<>+VDT6(SB), Y12, Y12
	VADDPD  TH2(SP), Y12, Y12

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
	VADDPD  DTH1(SP), Y14, Y14
	VMOVUPD vsincos<>+VNEGMAXV1(SB), Y0
	VMAXPD  Y14, Y0, Y14
	VMOVUPD vsincos<>+VMAXV1(SB), Y0
	VMINPD  Y14, Y0, Y14
	VMOVUPD vsincos<>+VDT6(SB), Y15
	VMULPD  S4(SP), Y15, Y15
	VADDPD  DTH2(SP), Y15, Y15
	VMOVUPD vsincos<>+VNEGMAXV2(SB), Y0
	VMAXPD  Y15, Y0, Y15
	VMOVUPD vsincos<>+VMAXV2(SB), Y0
	VMINPD  Y15, Y0, Y15

	// The observation's θ1 and θ2 and the done test's θ2+θ1 must be in
	// the window too; after these checks the group is written.
	VADDPD     Y11, Y12, Y13
	WINDOW(Y11)
	JNE        declined
	WINDOW(Y12)
	JNE        declined
	WINDOW(Y13)
	JNE        declined
	VMOVUPD    LANEMASK(SP), Y10
	INACTIVE(Y10, Y9)
	PUTROW(Y9, Y11, AcrobotGroup_Th1(DI))
	PUTROW(Y9, Y12, AcrobotGroup_Th2(DI))
	PUTROW(Y9, Y14, AcrobotGroup_Dth1(DI))
	PUTROW(Y9, Y15, AcrobotGroup_Dth2(DI))
	VMOVDQU    AcrobotGroup_Steps(DI), Y14
	VPADDQ     vsincos<>+VQONE(SB), Y14, Y14
	PUTROW(Y9, Y14, AcrobotGroup_Steps(DI))
	VPCMPGTQ   vsincos<>+VACLAST(SB), Y14, Y14 // steps >= the budget
	VMOVAPD    Y10, Y15                        // the lanes, kept through the trig

	// The observation's trig and the tip test: Y9 cos θ1, Y13 sin θ1,
	// Y11 cos θ2, Y12 sin θ2; Y14 the done flags.
	VMOVAPD Y13, Y0
	VANDPD  vsincos<>+VABS(SB), Y0, Y1
	TRIG
	COS_OF(Y13) // cos(θ2+θ1)
	VMOVAPD Y11, Y0
	VANDPD  vsincos<>+VABS(SB), Y0, Y1
	TRIG
	COS_OF(Y9)
	VXORPD  vsincos<>+VSIGN(SB), Y9, Y10
	VSUBPD  Y13, Y10, Y10
	VCMPPD  $0x1E, vsincos<>+VONE(SB), Y10, Y10 // GT_OQ: the tip is up
	VORPD   Y10, Y14, Y14
	SIN_OF(Y13)
	VMOVAPD Y12, Y0
	VANDPD  vsincos<>+VABS(SB), Y0, Y1
	TRIG
	COS_OF(Y11)
	SIN_OF(Y12)
	DONE(Y14)

	// The planes: the trig, the velocities as stored, and the reward.
	VMOVUPD    AcrobotGroup_Dth1(DI), Y0
	VMOVUPD    AcrobotGroup_Dth2(DI), Y1
	VMOVUPD    vsincos<>+VNEGONE(SB), Y2
	LEAQ       (BX)(BX*2), DX
	LEAQ       (SI)(BX*4), AX
	CMPQ       CX, $4
	JLT        partout
	VMOVUPD    Y9, (SI)
	VMOVUPD    Y13, (SI)(BX*1)
	VMOVUPD    Y11, (SI)(BX*2)
	VMOVUPD    Y12, (SI)(DX*1)
	VMOVUPD    Y0, (AX)
	VMOVUPD    Y1, (AX)(BX*1)
	VMOVUPD    Y2, (R8)
	JMP        out

partout:
	VMASKMOVPD Y9, Y15, (SI)
	VMASKMOVPD Y13, Y15, (SI)(BX*1)
	VMASKMOVPD Y11, Y15, (SI)(BX*2)
	VMASKMOVPD Y12, Y15, (SI)(DX*1)
	VMASKMOVPD Y0, Y15, (AX)
	VMASKMOVPD Y1, Y15, (AX)(BX*1)
	VMASKMOVPD Y2, Y15, (R8)

out:
	MOVB $0, AcrobotGroup_Declined(DI)
	JMP  nextgroup

declined:
	MOVB $1, AcrobotGroup_Declined(DI)

nextgroup:
	NEXTGROUP(AcrobotGroup__size)
	JGT group

ret:
	VZEROUPPER
	RET
