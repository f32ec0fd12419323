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
// the ordered range compare; the kernel stops at the first group with
// such a lane and the caller finishes with the stdlib scalars.
//
// The constant table carries the exact bit patterns of the stdlib
// constants (4/π, PI4A–C, _sin, _cos), broadcast across 4 lanes.

#include "textflag.h"

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

DATA vsincos<>+0(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA vsincos<>+8(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA vsincos<>+16(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA vsincos<>+24(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA vsincos<>+32(SB)/8, $0x8000000000000000
DATA vsincos<>+40(SB)/8, $0x8000000000000000
DATA vsincos<>+48(SB)/8, $0x8000000000000000
DATA vsincos<>+56(SB)/8, $0x8000000000000000
DATA vsincos<>+64(SB)/8, $0x41C0000000000000
DATA vsincos<>+72(SB)/8, $0x41C0000000000000
DATA vsincos<>+80(SB)/8, $0x41C0000000000000
DATA vsincos<>+88(SB)/8, $0x41C0000000000000
DATA vsincos<>+96(SB)/8, $0x3FF45F306DC9C883
DATA vsincos<>+104(SB)/8, $0x3FF45F306DC9C883
DATA vsincos<>+112(SB)/8, $0x3FF45F306DC9C883
DATA vsincos<>+120(SB)/8, $0x3FF45F306DC9C883
DATA vsincos<>+128(SB)/8, $0x3FE921FB40000000
DATA vsincos<>+136(SB)/8, $0x3FE921FB40000000
DATA vsincos<>+144(SB)/8, $0x3FE921FB40000000
DATA vsincos<>+152(SB)/8, $0x3FE921FB40000000
DATA vsincos<>+160(SB)/8, $0x3E64442D00000000
DATA vsincos<>+168(SB)/8, $0x3E64442D00000000
DATA vsincos<>+176(SB)/8, $0x3E64442D00000000
DATA vsincos<>+184(SB)/8, $0x3E64442D00000000
DATA vsincos<>+192(SB)/8, $0x3CE8469898CC5170
DATA vsincos<>+200(SB)/8, $0x3CE8469898CC5170
DATA vsincos<>+208(SB)/8, $0x3CE8469898CC5170
DATA vsincos<>+216(SB)/8, $0x3CE8469898CC5170
DATA vsincos<>+224(SB)/8, $0x3FF0000000000000
DATA vsincos<>+232(SB)/8, $0x3FF0000000000000
DATA vsincos<>+240(SB)/8, $0x3FF0000000000000
DATA vsincos<>+248(SB)/8, $0x3FF0000000000000
DATA vsincos<>+256(SB)/8, $0x3FE0000000000000
DATA vsincos<>+264(SB)/8, $0x3FE0000000000000
DATA vsincos<>+272(SB)/8, $0x3FE0000000000000
DATA vsincos<>+280(SB)/8, $0x3FE0000000000000
DATA vsincos<>+288(SB)/8, $0x3DE5D8FD1FD19CCD
DATA vsincos<>+296(SB)/8, $0x3DE5D8FD1FD19CCD
DATA vsincos<>+304(SB)/8, $0x3DE5D8FD1FD19CCD
DATA vsincos<>+312(SB)/8, $0x3DE5D8FD1FD19CCD
DATA vsincos<>+320(SB)/8, $0xBE5AE5E5A9291F5D
DATA vsincos<>+328(SB)/8, $0xBE5AE5E5A9291F5D
DATA vsincos<>+336(SB)/8, $0xBE5AE5E5A9291F5D
DATA vsincos<>+344(SB)/8, $0xBE5AE5E5A9291F5D
DATA vsincos<>+352(SB)/8, $0x3EC71DE3567D48A1
DATA vsincos<>+360(SB)/8, $0x3EC71DE3567D48A1
DATA vsincos<>+368(SB)/8, $0x3EC71DE3567D48A1
DATA vsincos<>+376(SB)/8, $0x3EC71DE3567D48A1
DATA vsincos<>+384(SB)/8, $0xBF2A01A019BFDF03
DATA vsincos<>+392(SB)/8, $0xBF2A01A019BFDF03
DATA vsincos<>+400(SB)/8, $0xBF2A01A019BFDF03
DATA vsincos<>+408(SB)/8, $0xBF2A01A019BFDF03
DATA vsincos<>+416(SB)/8, $0x3F8111111110F7D0
DATA vsincos<>+424(SB)/8, $0x3F8111111110F7D0
DATA vsincos<>+432(SB)/8, $0x3F8111111110F7D0
DATA vsincos<>+440(SB)/8, $0x3F8111111110F7D0
DATA vsincos<>+448(SB)/8, $0xBFC5555555555548
DATA vsincos<>+456(SB)/8, $0xBFC5555555555548
DATA vsincos<>+464(SB)/8, $0xBFC5555555555548
DATA vsincos<>+472(SB)/8, $0xBFC5555555555548
DATA vsincos<>+480(SB)/8, $0xBDA8FA49A0861A9B
DATA vsincos<>+488(SB)/8, $0xBDA8FA49A0861A9B
DATA vsincos<>+496(SB)/8, $0xBDA8FA49A0861A9B
DATA vsincos<>+504(SB)/8, $0xBDA8FA49A0861A9B
DATA vsincos<>+512(SB)/8, $0x3E21EE9D7B4E3F05
DATA vsincos<>+520(SB)/8, $0x3E21EE9D7B4E3F05
DATA vsincos<>+528(SB)/8, $0x3E21EE9D7B4E3F05
DATA vsincos<>+536(SB)/8, $0x3E21EE9D7B4E3F05
DATA vsincos<>+544(SB)/8, $0xBE927E4F7EAC4BC6
DATA vsincos<>+552(SB)/8, $0xBE927E4F7EAC4BC6
DATA vsincos<>+560(SB)/8, $0xBE927E4F7EAC4BC6
DATA vsincos<>+568(SB)/8, $0xBE927E4F7EAC4BC6
DATA vsincos<>+576(SB)/8, $0x3EFA01A019C844F5
DATA vsincos<>+584(SB)/8, $0x3EFA01A019C844F5
DATA vsincos<>+592(SB)/8, $0x3EFA01A019C844F5
DATA vsincos<>+600(SB)/8, $0x3EFA01A019C844F5
DATA vsincos<>+608(SB)/8, $0xBF56C16C16C14F91
DATA vsincos<>+616(SB)/8, $0xBF56C16C16C14F91
DATA vsincos<>+624(SB)/8, $0xBF56C16C16C14F91
DATA vsincos<>+632(SB)/8, $0xBF56C16C16C14F91
DATA vsincos<>+640(SB)/8, $0x3FA555555555554B
DATA vsincos<>+648(SB)/8, $0x3FA555555555554B
DATA vsincos<>+656(SB)/8, $0x3FA555555555554B
DATA vsincos<>+664(SB)/8, $0x3FA555555555554B
DATA vsincos<>+672(SB)/8, $0x0000000100000001
DATA vsincos<>+680(SB)/8, $0x0000000100000001
DATA vsincos<>+688(SB)/8, $0x0000000100000001
DATA vsincos<>+696(SB)/8, $0x0000000100000001
GLOBL vsincos<>(SB), RODATA|NOPTR, $704

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
	CMPQ AX, CX
	JGE  done
	VMOVUPD (SI)(AX*8), Y0 // x

	// Range test: |x| < 2^29 is the stdlib's Cody–Waite branch; the
	// ordered compare also rejects NaN and ±Inf.
	VANDPD    vsincos<>+VABS(SB), Y0, Y1 // |x|
	VCMPPD    $0x11, vsincos<>+VLIMIT(SB), Y1, Y2 // LT_OQ
	VMOVMSKPD Y2, DX
	CMPL      DX, $0xF
	JNE       done

	// j = uint64(|x|*(4/π)); j += j&1; y = float64(j)
	VMULPD      vsincos<>+VFOURPI(SB), Y1, Y2
	VCVTTPD2DQY Y2, X2
	VPAND       vsincos<>+VIONE(SB), X2, X3
	VPADDD      X3, X2, X2
	VCVTDQ2PD   X2, Y3 // y
	VPMOVZXDQ   X2, Y10 // j, one quadword per lane

	// z = ((|x| - y*PI4A) - y*PI4B) - y*PI4C
	VMULPD vsincos<>+VPI4A(SB), Y3, Y4
	VSUBPD Y4, Y1, Y1
	VMULPD vsincos<>+VPI4B(SB), Y3, Y4
	VSUBPD Y4, Y1, Y1
	VMULPD vsincos<>+VPI4C(SB), Y3, Y4
	VSUBPD Y4, Y1, Y1 // z

	VMULPD Y1, Y1, Y2 // zz = z*z

	// Sin polynomial: ((((sin0*zz+sin1)*zz+sin2)*zz+sin3)*zz+sin4)*zz+sin5
	VMOVUPD vsincos<>+VSIN0(SB), Y3
	VMULPD  Y2, Y3, Y3
	VADDPD  vsincos<>+VSIN1(SB), Y3, Y3
	VMULPD  Y2, Y3, Y3
	VADDPD  vsincos<>+VSIN2(SB), Y3, Y3
	VMULPD  Y2, Y3, Y3
	VADDPD  vsincos<>+VSIN3(SB), Y3, Y3
	VMULPD  Y2, Y3, Y3
	VADDPD  vsincos<>+VSIN4(SB), Y3, Y3
	VMULPD  Y2, Y3, Y3
	VADDPD  vsincos<>+VSIN5(SB), Y3, Y3

	// s = z + (z*zz)*poly
	VMULPD Y2, Y1, Y4
	VMULPD Y3, Y4, Y4
	VADDPD Y4, Y1, Y4

	// Cos polynomial: ((((cos0*zz+cos1)*zz+cos2)*zz+cos3)*zz+cos4)*zz+cos5
	VMOVUPD vsincos<>+VCOS0(SB), Y5
	VMULPD  Y2, Y5, Y5
	VADDPD  vsincos<>+VCOS1(SB), Y5, Y5
	VMULPD  Y2, Y5, Y5
	VADDPD  vsincos<>+VCOS2(SB), Y5, Y5
	VMULPD  Y2, Y5, Y5
	VADDPD  vsincos<>+VCOS3(SB), Y5, Y5
	VMULPD  Y2, Y5, Y5
	VADDPD  vsincos<>+VCOS4(SB), Y5, Y5
	VMULPD  Y2, Y5, Y5
	VADDPD  vsincos<>+VCOS5(SB), Y5, Y5

	// c = (1 - 0.5*zz) + (zz*zz)*poly
	VMULPD  Y2, Y2, Y6
	VMULPD  Y5, Y6, Y6
	VMULPD  vsincos<>+VHALF(SB), Y2, Y7
	VMOVUPD vsincos<>+VONE(SB), Y8
	VSUBPD  Y7, Y8, Y8
	VADDPD  Y6, Y8, Y8

	// Octant select. Shifting j left by 62 (61) puts bit 1 (bit 2) in
	// each lane's sign position, the bit VBLENDVPD reads.
	VPSLLQ    $62, Y10, Y11 // swap: the stdlib's j == 1 || j == 2
	VPSLLQ    $61, Y10, Y12 // reflect: the stdlib's j > 3
	VBLENDVPD Y11, Y8, Y4, Y5 // sin = swap ? c : s
	VBLENDVPD Y11, Y4, Y8, Y6 // cos = swap ? s : c
	VXORPD    Y11, Y12, Y13
	VANDPD    vsincos<>+VSIGN(SB), Y13, Y13
	VXORPD    Y13, Y6, Y6 // cos sign: reflect ^ swap
	VXORPD    Y0, Y12, Y12
	VANDPD    vsincos<>+VSIGN(SB), Y12, Y12
	VXORPD    Y12, Y5, Y5 // sin sign: sign(x) ^ reflect
	VMOVUPD   Y5, (DI)(AX*8)
	VMOVUPD   Y6, (R8)(AX*8)

	ADDQ $4, AX
	JMP  loop

done:
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET
