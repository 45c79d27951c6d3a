#include "textflag.h"

// The kernel keeps SHA-1's state the way the SHA-NI instructions want
// it: A, B, C, D in lanes 3, 2, 1, 0 of one register, E in lane 3 of
// another, and message words W0..W3 of a group of four in lanes 3..0.
// As 128-bit integers, the registers below are therefore the SHA-1
// initial value and the fixed tail of a 16-byte message's single
// padded block: W4..W7 = {0x80000000, 0, 0, 0} (the 1 bit after the
// message), W8..W11 = 0, W12..W15 = {0, 0, 0, 128} (its length in bits).
DATA sha1InitABCD<>+0(SB)/8, $0x98badcfe10325476
DATA sha1InitABCD<>+8(SB)/8, $0x67452301efcdab89
GLOBL sha1InitABCD<>(SB), RODATA|NOPTR, $16

DATA sha1InitE<>+0(SB)/8, $0
DATA sha1InitE<>+8(SB)/8, $0xc3d2e1f000000000
GLOBL sha1InitE<>(SB), RODATA|NOPTR, $16

DATA sha1Pad<>+0(SB)/8, $0
DATA sha1Pad<>+8(SB)/8, $0x8000000000000000
GLOBL sha1Pad<>(SB), RODATA|NOPTR, $16

DATA sha1Len<>+0(SB)/8, $128
DATA sha1Len<>+8(SB)/8, $0
GLOBL sha1Len<>(SB), RODATA|NOPTR, $16

// PSHUFB mask reversing a register's 16 bytes: lane 3 first, each lane
// big-endian, which is the digest's byte order.
DATA flipMask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA flipMask<>+8(SB)/8, $0x0001020304050607
GLOBL flipMask<>(SB), RODATA|NOPTR, $16

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func sha1Fill(out []ids.ID, salt, from uint64)
//
// Sets out[k] to SHA-1(salt‖from+k), both counters big-endian. The
// rounds follow Intel's reference SHA-NI loop, with the message built
// in registers: W0..W3 are salt‖from+k, which as a 128-bit integer is
// salt<<64 | from+k, and W4..W15 are the constants above.
//
// Registers: X0 ABCD, X1/X2 E (alternating), X3..X6 message words,
// X7 flipMask, X8 initial ABCD, X9 initial E, X10 W4..W7, X11 W12..W15,
// X12 salt in its low quadword.
TEXT ·sha1Fill(SB), NOSPLIT, $0-40
	MOVQ   out_base+0(FP), DI
	MOVQ   out_len+8(FP), DX
	MOVQ   salt+24(FP), X12
	MOVQ   from+32(FP), CX
	TESTQ  DX, DX
	JZ     done
	MOVOU  flipMask<>(SB), X7
	MOVOU  sha1InitABCD<>(SB), X8
	MOVOU  sha1InitE<>(SB), X9
	MOVOU  sha1Pad<>(SB), X10
	MOVOU  sha1Len<>(SB), X11

loop:
	MOVQ       CX, X3
	PUNPCKLQDQ X12, X3
	MOVO       X10, X4
	PXOR       X5, X5
	MOVO       X11, X6
	MOVO       X8, X0
	MOVO       X9, X1

	// rounds 0-3
	PADDL      X3, X1
	MOVO       X0, X2
	SHA1RNDS4  $0, X1, X0

	// rounds 4-7
	SHA1NEXTE  X4, X2
	MOVO       X0, X1
	SHA1RNDS4  $0, X2, X0
	SHA1MSG1   X4, X3

	// rounds 8-11
	SHA1NEXTE  X5, X1
	MOVO       X0, X2
	SHA1RNDS4  $0, X1, X0
	SHA1MSG1   X5, X4
	PXOR       X5, X3

	// rounds 12-15
	SHA1NEXTE  X6, X2
	MOVO       X0, X1
	SHA1MSG2   X6, X3
	SHA1RNDS4  $0, X2, X0
	SHA1MSG1   X6, X5
	PXOR       X6, X4

	// rounds 16-19
	SHA1NEXTE  X3, X1
	MOVO       X0, X2
	SHA1MSG2   X3, X4
	SHA1RNDS4  $0, X1, X0
	SHA1MSG1   X3, X6
	PXOR       X3, X5

	// rounds 20-23
	SHA1NEXTE  X4, X2
	MOVO       X0, X1
	SHA1MSG2   X4, X5
	SHA1RNDS4  $1, X2, X0
	SHA1MSG1   X4, X3
	PXOR       X4, X6

	// rounds 24-27
	SHA1NEXTE  X5, X1
	MOVO       X0, X2
	SHA1MSG2   X5, X6
	SHA1RNDS4  $1, X1, X0
	SHA1MSG1   X5, X4
	PXOR       X5, X3

	// rounds 28-31
	SHA1NEXTE  X6, X2
	MOVO       X0, X1
	SHA1MSG2   X6, X3
	SHA1RNDS4  $1, X2, X0
	SHA1MSG1   X6, X5
	PXOR       X6, X4

	// rounds 32-35
	SHA1NEXTE  X3, X1
	MOVO       X0, X2
	SHA1MSG2   X3, X4
	SHA1RNDS4  $1, X1, X0
	SHA1MSG1   X3, X6
	PXOR       X3, X5

	// rounds 36-39
	SHA1NEXTE  X4, X2
	MOVO       X0, X1
	SHA1MSG2   X4, X5
	SHA1RNDS4  $1, X2, X0
	SHA1MSG1   X4, X3
	PXOR       X4, X6

	// rounds 40-43
	SHA1NEXTE  X5, X1
	MOVO       X0, X2
	SHA1MSG2   X5, X6
	SHA1RNDS4  $2, X1, X0
	SHA1MSG1   X5, X4
	PXOR       X5, X3

	// rounds 44-47
	SHA1NEXTE  X6, X2
	MOVO       X0, X1
	SHA1MSG2   X6, X3
	SHA1RNDS4  $2, X2, X0
	SHA1MSG1   X6, X5
	PXOR       X6, X4

	// rounds 48-51
	SHA1NEXTE  X3, X1
	MOVO       X0, X2
	SHA1MSG2   X3, X4
	SHA1RNDS4  $2, X1, X0
	SHA1MSG1   X3, X6
	PXOR       X3, X5

	// rounds 52-55
	SHA1NEXTE  X4, X2
	MOVO       X0, X1
	SHA1MSG2   X4, X5
	SHA1RNDS4  $2, X2, X0
	SHA1MSG1   X4, X3
	PXOR       X4, X6

	// rounds 56-59
	SHA1NEXTE  X5, X1
	MOVO       X0, X2
	SHA1MSG2   X5, X6
	SHA1RNDS4  $2, X1, X0
	SHA1MSG1   X5, X4
	PXOR       X5, X3

	// rounds 60-63
	SHA1NEXTE  X6, X2
	MOVO       X0, X1
	SHA1MSG2   X6, X3
	SHA1RNDS4  $3, X2, X0
	SHA1MSG1   X6, X5
	PXOR       X6, X4

	// rounds 64-67
	SHA1NEXTE  X3, X1
	MOVO       X0, X2
	SHA1MSG2   X3, X4
	SHA1RNDS4  $3, X1, X0
	SHA1MSG1   X3, X6
	PXOR       X3, X5

	// rounds 68-71
	SHA1NEXTE  X4, X2
	MOVO       X0, X1
	SHA1MSG2   X4, X5
	SHA1RNDS4  $3, X2, X0
	PXOR       X4, X6

	// rounds 72-75
	SHA1NEXTE  X5, X1
	MOVO       X0, X2
	SHA1MSG2   X5, X6
	SHA1RNDS4  $3, X1, X0

	// rounds 76-79
	SHA1NEXTE  X6, X2
	MOVO       X0, X1
	SHA1RNDS4  $3, X2, X0

	// add the initial value, then store A..E big-endian
	SHA1NEXTE X9, X1
	PADDL     X8, X0
	PSHUFB    X7, X0
	PSHUFB    X7, X1
	MOVOU     X0, (DI)
	MOVL      X1, 16(DI)

	ADDQ $20, DI
	INCQ CX
	DECQ DX
	JNZ  loop

done:
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET

// The 16-lane kernel below holds one key in each dword lane of a ZMM
// register. Its constants are single dwords, broadcast to all lanes:
// the SHA-1 initial value H0..H4, the round constants K0..K3, and the
// block's fixed words W4 = 0x80000000 and W15 = 128.
DATA sha1H<>+0(SB)/4, $0x67452301
DATA sha1H<>+4(SB)/4, $0xefcdab89
DATA sha1H<>+8(SB)/4, $0x98badcfe
DATA sha1H<>+12(SB)/4, $0x10325476
DATA sha1H<>+16(SB)/4, $0xc3d2e1f0
GLOBL sha1H<>(SB), RODATA|NOPTR, $20

DATA sha1K<>+0(SB)/4, $0x5a827999
DATA sha1K<>+4(SB)/4, $0x6ed9eba1
DATA sha1K<>+8(SB)/4, $0x8f1bbcdc
DATA sha1K<>+12(SB)/4, $0xca62c1d6
GLOBL sha1K<>(SB), RODATA|NOPTR, $16

DATA sha1W4<>+0(SB)/4, $0x80000000
GLOBL sha1W4<>(SB), RODATA|NOPTR, $4

DATA sha1W15<>+0(SB)/4, $128
GLOBL sha1W15<>(SB), RODATA|NOPTR, $4

// Lane numbers 0..15, added to the counter's low word.
DATA laneIndex<>+0(SB)/8, $0x0000000100000000
DATA laneIndex<>+8(SB)/8, $0x0000000300000002
DATA laneIndex<>+16(SB)/8, $0x0000000500000004
DATA laneIndex<>+24(SB)/8, $0x0000000700000006
DATA laneIndex<>+32(SB)/8, $0x0000000900000008
DATA laneIndex<>+40(SB)/8, $0x0000000b0000000a
DATA laneIndex<>+48(SB)/8, $0x0000000d0000000c
DATA laneIndex<>+56(SB)/8, $0x0000000f0000000e
GLOBL laneIndex<>(SB), RODATA|NOPTR, $64

// VPSHUFB mask reversing the bytes of each dword, repeated in each
// 128-bit lane by VBROADCASTI32X4.
DATA bswapMask<>+0(SB)/8, $0x0405060700010203
DATA bswapMask<>+8(SB)/8, $0x0c0d0e0f08090a0b
GLOBL bswapMask<>(SB), RODATA|NOPTR, $16

// Each lane's first dword in the pass's output, 5*lane: a key is five
// dwords.
DATA keyOffset<>+0(SB)/8, $0x0000000500000000
DATA keyOffset<>+8(SB)/8, $0x0000000f0000000a
DATA keyOffset<>+16(SB)/8, $0x0000001900000014
DATA keyOffset<>+24(SB)/8, $0x000000230000001e
DATA keyOffset<>+32(SB)/8, $0x0000002d00000028
DATA keyOffset<>+40(SB)/8, $0x0000003700000032
DATA keyOffset<>+48(SB)/8, $0x000000410000003c
DATA keyOffset<>+56(SB)/8, $0x0000004b00000046
GLOBL keyOffset<>(SB), RODATA|NOPTR, $64

// One round on sixteen lanes, after e has had W[t] and K added:
// e += f(b, c, d) + (a <<< 5), and t = b <<< 30 becomes the next
// round's c. f is VPTERNLOGD's truth table with b as its first input:
// 0xCA is Ch (b ? c : d), 0x96 parity, 0xE8 majority. b is free
// afterwards, so the six registers rotate one place a round: the next
// round's (a, b, c, d, e, t) is this one's (e, a, t, c, d, b).
#define ROUND(f, a, b, c, d, e, t) \
	VPROLD     $30, b, t; \
	VPTERNLOGD $f, d, c, b; \
	VPADDD     b, e, e; \
	VPROLD     $5, a, b; \
	VPADDD     b, e, e

// e += W[t] + K.
#define WK(w, k, e) \
	VPADDD w, e, e; \
	VPADDD k, e, e

// W[t] = (W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16]) <<< 1, in the register
// that held W[t-16].
#define SCHED(w, w3, w8, w14) \
	VPTERNLOGD $0x96, w3, w8, w; \
	VPXORD     w14, w, w; \
	VPROLD     $1, w, w

// func sha1Fill16(out []ids.ID, salt, from uint64)
//
// Sets out[k] to SHA-1(salt‖from+k), sixteen keys a pass, for len(out)
// a multiple of 16 (the rest is not written). Lane k of a pass hashes
// counter from+k: only the message words W2 and W3, the counter's high
// and low halves, differ between lanes. W3 is the low half plus the
// lane number, and W2 gains one in the lanes where that sum wrapped.
// The digests are byte-swapped to big-endian and scattered, word j of
// lane k to byte 20k+4j of the pass's 320 bytes.
//
// Registers: Z0..Z5 the state A..E and a free one (see ROUND), Z6
// scratch, Z7 laneIndex, Z8 bswapMask, Z9..Z12 K0..K3, Z13
// keyOffset, Z14 the counter's low half, Z16..Z31 W[t mod 16]; R8 and
// R9 the salt's high and low halves, BX the counter's high half. Z15
// is unused.
TEXT ·sha1Fill16(SB), NOSPLIT, $0-40
	MOVQ            out_base+0(FP), DI
	MOVQ            out_len+8(FP), DX
	MOVQ            salt+24(FP), R9
	MOVQ            from+32(FP), CX
	SHRQ            $4, DX
	JZ              done16
	MOVQ            R9, R8
	SHRQ            $32, R8
	VMOVDQU32       laneIndex<>(SB), Z7
	VBROADCASTI32X4 bswapMask<>(SB), Z8
	VPBROADCASTD    sha1K<>+0(SB), Z9
	VPBROADCASTD    sha1K<>+4(SB), Z10
	VPBROADCASTD    sha1K<>+8(SB), Z11
	VPBROADCASTD    sha1K<>+12(SB), Z12
	VMOVDQU32       keyOffset<>(SB), Z13

loop16:
	// the block: salt, the lanes' counters (W3 the low halves; W2 the
	// high half, minus -1 where the low half wrapped), then the padding
	// and length
	VPBROADCASTD R8, Z16
	VPBROADCASTD R9, Z17
	MOVQ         CX, BX
	SHRQ         $32, BX
	VPBROADCASTD CX, Z14
	VPBROADCASTD BX, Z18
	VPADDD       Z7, Z14, Z19
	VPCMPUD      $1, Z14, Z19, K1
	VPTERNLOGD   $0xff, Z6, Z6, Z6
	VPSUBD       Z6, Z18, K1, Z18
	VPBROADCASTD sha1W4<>(SB), Z20
	VPXORD       Z21, Z21, Z21
	VPXORD       Z22, Z22, Z22
	VPXORD       Z23, Z23, Z23
	VPXORD       Z24, Z24, Z24
	VPXORD       Z25, Z25, Z25
	VPXORD       Z26, Z26, Z26
	VPXORD       Z27, Z27, Z27
	VPXORD       Z28, Z28, Z28
	VPXORD       Z29, Z29, Z29
	VPXORD       Z30, Z30, Z30
	VPBROADCASTD sha1W15<>(SB), Z31

	VPBROADCASTD sha1H<>+0(SB), Z0
	VPBROADCASTD sha1H<>+4(SB), Z1
	VPBROADCASTD sha1H<>+8(SB), Z2
	VPBROADCASTD sha1H<>+12(SB), Z3
	VPBROADCASTD sha1H<>+16(SB), Z4

	// rounds 0-19; W5..W14 are zero, so rounds 5-14 add K alone
	WK(Z16, Z9, Z4); ROUND(0xCA, Z0, Z1, Z2, Z3, Z4, Z5)
	WK(Z17, Z9, Z3); ROUND(0xCA, Z4, Z0, Z5, Z2, Z3, Z1)
	WK(Z18, Z9, Z2); ROUND(0xCA, Z3, Z4, Z1, Z5, Z2, Z0)
	WK(Z19, Z9, Z5); ROUND(0xCA, Z2, Z3, Z0, Z1, Z5, Z4)
	WK(Z20, Z9, Z1); ROUND(0xCA, Z5, Z2, Z4, Z0, Z1, Z3)
	VPADDD Z9, Z0, Z0; ROUND(0xCA, Z1, Z5, Z3, Z4, Z0, Z2)
	VPADDD Z9, Z4, Z4; ROUND(0xCA, Z0, Z1, Z2, Z3, Z4, Z5)
	VPADDD Z9, Z3, Z3; ROUND(0xCA, Z4, Z0, Z5, Z2, Z3, Z1)
	VPADDD Z9, Z2, Z2; ROUND(0xCA, Z3, Z4, Z1, Z5, Z2, Z0)
	VPADDD Z9, Z5, Z5; ROUND(0xCA, Z2, Z3, Z0, Z1, Z5, Z4)
	VPADDD Z9, Z1, Z1; ROUND(0xCA, Z5, Z2, Z4, Z0, Z1, Z3)
	VPADDD Z9, Z0, Z0; ROUND(0xCA, Z1, Z5, Z3, Z4, Z0, Z2)
	VPADDD Z9, Z4, Z4; ROUND(0xCA, Z0, Z1, Z2, Z3, Z4, Z5)
	VPADDD Z9, Z3, Z3; ROUND(0xCA, Z4, Z0, Z5, Z2, Z3, Z1)
	VPADDD Z9, Z2, Z2; ROUND(0xCA, Z3, Z4, Z1, Z5, Z2, Z0)
	WK(Z31, Z9, Z5); ROUND(0xCA, Z2, Z3, Z0, Z1, Z5, Z4)
	SCHED(Z16, Z29, Z24, Z18); WK(Z16, Z9, Z1); ROUND(0xCA, Z5, Z2, Z4, Z0, Z1, Z3)
	SCHED(Z17, Z30, Z25, Z19); WK(Z17, Z9, Z0); ROUND(0xCA, Z1, Z5, Z3, Z4, Z0, Z2)
	SCHED(Z18, Z31, Z26, Z20); WK(Z18, Z9, Z4); ROUND(0xCA, Z0, Z1, Z2, Z3, Z4, Z5)
	SCHED(Z19, Z16, Z27, Z21); WK(Z19, Z9, Z3); ROUND(0xCA, Z4, Z0, Z5, Z2, Z3, Z1)

	// rounds 20-39
	SCHED(Z20, Z17, Z28, Z22); WK(Z20, Z10, Z2); ROUND(0x96, Z3, Z4, Z1, Z5, Z2, Z0)
	SCHED(Z21, Z18, Z29, Z23); WK(Z21, Z10, Z5); ROUND(0x96, Z2, Z3, Z0, Z1, Z5, Z4)
	SCHED(Z22, Z19, Z30, Z24); WK(Z22, Z10, Z1); ROUND(0x96, Z5, Z2, Z4, Z0, Z1, Z3)
	SCHED(Z23, Z20, Z31, Z25); WK(Z23, Z10, Z0); ROUND(0x96, Z1, Z5, Z3, Z4, Z0, Z2)
	SCHED(Z24, Z21, Z16, Z26); WK(Z24, Z10, Z4); ROUND(0x96, Z0, Z1, Z2, Z3, Z4, Z5)
	SCHED(Z25, Z22, Z17, Z27); WK(Z25, Z10, Z3); ROUND(0x96, Z4, Z0, Z5, Z2, Z3, Z1)
	SCHED(Z26, Z23, Z18, Z28); WK(Z26, Z10, Z2); ROUND(0x96, Z3, Z4, Z1, Z5, Z2, Z0)
	SCHED(Z27, Z24, Z19, Z29); WK(Z27, Z10, Z5); ROUND(0x96, Z2, Z3, Z0, Z1, Z5, Z4)
	SCHED(Z28, Z25, Z20, Z30); WK(Z28, Z10, Z1); ROUND(0x96, Z5, Z2, Z4, Z0, Z1, Z3)
	SCHED(Z29, Z26, Z21, Z31); WK(Z29, Z10, Z0); ROUND(0x96, Z1, Z5, Z3, Z4, Z0, Z2)
	SCHED(Z30, Z27, Z22, Z16); WK(Z30, Z10, Z4); ROUND(0x96, Z0, Z1, Z2, Z3, Z4, Z5)
	SCHED(Z31, Z28, Z23, Z17); WK(Z31, Z10, Z3); ROUND(0x96, Z4, Z0, Z5, Z2, Z3, Z1)
	SCHED(Z16, Z29, Z24, Z18); WK(Z16, Z10, Z2); ROUND(0x96, Z3, Z4, Z1, Z5, Z2, Z0)
	SCHED(Z17, Z30, Z25, Z19); WK(Z17, Z10, Z5); ROUND(0x96, Z2, Z3, Z0, Z1, Z5, Z4)
	SCHED(Z18, Z31, Z26, Z20); WK(Z18, Z10, Z1); ROUND(0x96, Z5, Z2, Z4, Z0, Z1, Z3)
	SCHED(Z19, Z16, Z27, Z21); WK(Z19, Z10, Z0); ROUND(0x96, Z1, Z5, Z3, Z4, Z0, Z2)
	SCHED(Z20, Z17, Z28, Z22); WK(Z20, Z10, Z4); ROUND(0x96, Z0, Z1, Z2, Z3, Z4, Z5)
	SCHED(Z21, Z18, Z29, Z23); WK(Z21, Z10, Z3); ROUND(0x96, Z4, Z0, Z5, Z2, Z3, Z1)
	SCHED(Z22, Z19, Z30, Z24); WK(Z22, Z10, Z2); ROUND(0x96, Z3, Z4, Z1, Z5, Z2, Z0)
	SCHED(Z23, Z20, Z31, Z25); WK(Z23, Z10, Z5); ROUND(0x96, Z2, Z3, Z0, Z1, Z5, Z4)

	// rounds 40-59
	SCHED(Z24, Z21, Z16, Z26); WK(Z24, Z11, Z1); ROUND(0xE8, Z5, Z2, Z4, Z0, Z1, Z3)
	SCHED(Z25, Z22, Z17, Z27); WK(Z25, Z11, Z0); ROUND(0xE8, Z1, Z5, Z3, Z4, Z0, Z2)
	SCHED(Z26, Z23, Z18, Z28); WK(Z26, Z11, Z4); ROUND(0xE8, Z0, Z1, Z2, Z3, Z4, Z5)
	SCHED(Z27, Z24, Z19, Z29); WK(Z27, Z11, Z3); ROUND(0xE8, Z4, Z0, Z5, Z2, Z3, Z1)
	SCHED(Z28, Z25, Z20, Z30); WK(Z28, Z11, Z2); ROUND(0xE8, Z3, Z4, Z1, Z5, Z2, Z0)
	SCHED(Z29, Z26, Z21, Z31); WK(Z29, Z11, Z5); ROUND(0xE8, Z2, Z3, Z0, Z1, Z5, Z4)
	SCHED(Z30, Z27, Z22, Z16); WK(Z30, Z11, Z1); ROUND(0xE8, Z5, Z2, Z4, Z0, Z1, Z3)
	SCHED(Z31, Z28, Z23, Z17); WK(Z31, Z11, Z0); ROUND(0xE8, Z1, Z5, Z3, Z4, Z0, Z2)
	SCHED(Z16, Z29, Z24, Z18); WK(Z16, Z11, Z4); ROUND(0xE8, Z0, Z1, Z2, Z3, Z4, Z5)
	SCHED(Z17, Z30, Z25, Z19); WK(Z17, Z11, Z3); ROUND(0xE8, Z4, Z0, Z5, Z2, Z3, Z1)
	SCHED(Z18, Z31, Z26, Z20); WK(Z18, Z11, Z2); ROUND(0xE8, Z3, Z4, Z1, Z5, Z2, Z0)
	SCHED(Z19, Z16, Z27, Z21); WK(Z19, Z11, Z5); ROUND(0xE8, Z2, Z3, Z0, Z1, Z5, Z4)
	SCHED(Z20, Z17, Z28, Z22); WK(Z20, Z11, Z1); ROUND(0xE8, Z5, Z2, Z4, Z0, Z1, Z3)
	SCHED(Z21, Z18, Z29, Z23); WK(Z21, Z11, Z0); ROUND(0xE8, Z1, Z5, Z3, Z4, Z0, Z2)
	SCHED(Z22, Z19, Z30, Z24); WK(Z22, Z11, Z4); ROUND(0xE8, Z0, Z1, Z2, Z3, Z4, Z5)
	SCHED(Z23, Z20, Z31, Z25); WK(Z23, Z11, Z3); ROUND(0xE8, Z4, Z0, Z5, Z2, Z3, Z1)
	SCHED(Z24, Z21, Z16, Z26); WK(Z24, Z11, Z2); ROUND(0xE8, Z3, Z4, Z1, Z5, Z2, Z0)
	SCHED(Z25, Z22, Z17, Z27); WK(Z25, Z11, Z5); ROUND(0xE8, Z2, Z3, Z0, Z1, Z5, Z4)
	SCHED(Z26, Z23, Z18, Z28); WK(Z26, Z11, Z1); ROUND(0xE8, Z5, Z2, Z4, Z0, Z1, Z3)
	SCHED(Z27, Z24, Z19, Z29); WK(Z27, Z11, Z0); ROUND(0xE8, Z1, Z5, Z3, Z4, Z0, Z2)

	// rounds 60-79
	SCHED(Z28, Z25, Z20, Z30); WK(Z28, Z12, Z4); ROUND(0x96, Z0, Z1, Z2, Z3, Z4, Z5)
	SCHED(Z29, Z26, Z21, Z31); WK(Z29, Z12, Z3); ROUND(0x96, Z4, Z0, Z5, Z2, Z3, Z1)
	SCHED(Z30, Z27, Z22, Z16); WK(Z30, Z12, Z2); ROUND(0x96, Z3, Z4, Z1, Z5, Z2, Z0)
	SCHED(Z31, Z28, Z23, Z17); WK(Z31, Z12, Z5); ROUND(0x96, Z2, Z3, Z0, Z1, Z5, Z4)
	SCHED(Z16, Z29, Z24, Z18); WK(Z16, Z12, Z1); ROUND(0x96, Z5, Z2, Z4, Z0, Z1, Z3)
	SCHED(Z17, Z30, Z25, Z19); WK(Z17, Z12, Z0); ROUND(0x96, Z1, Z5, Z3, Z4, Z0, Z2)
	SCHED(Z18, Z31, Z26, Z20); WK(Z18, Z12, Z4); ROUND(0x96, Z0, Z1, Z2, Z3, Z4, Z5)
	SCHED(Z19, Z16, Z27, Z21); WK(Z19, Z12, Z3); ROUND(0x96, Z4, Z0, Z5, Z2, Z3, Z1)
	SCHED(Z20, Z17, Z28, Z22); WK(Z20, Z12, Z2); ROUND(0x96, Z3, Z4, Z1, Z5, Z2, Z0)
	SCHED(Z21, Z18, Z29, Z23); WK(Z21, Z12, Z5); ROUND(0x96, Z2, Z3, Z0, Z1, Z5, Z4)
	SCHED(Z22, Z19, Z30, Z24); WK(Z22, Z12, Z1); ROUND(0x96, Z5, Z2, Z4, Z0, Z1, Z3)
	SCHED(Z23, Z20, Z31, Z25); WK(Z23, Z12, Z0); ROUND(0x96, Z1, Z5, Z3, Z4, Z0, Z2)
	SCHED(Z24, Z21, Z16, Z26); WK(Z24, Z12, Z4); ROUND(0x96, Z0, Z1, Z2, Z3, Z4, Z5)
	SCHED(Z25, Z22, Z17, Z27); WK(Z25, Z12, Z3); ROUND(0x96, Z4, Z0, Z5, Z2, Z3, Z1)
	SCHED(Z26, Z23, Z18, Z28); WK(Z26, Z12, Z2); ROUND(0x96, Z3, Z4, Z1, Z5, Z2, Z0)
	SCHED(Z27, Z24, Z19, Z29); WK(Z27, Z12, Z5); ROUND(0x96, Z2, Z3, Z0, Z1, Z5, Z4)
	SCHED(Z28, Z25, Z20, Z30); WK(Z28, Z12, Z1); ROUND(0x96, Z5, Z2, Z4, Z0, Z1, Z3)
	SCHED(Z29, Z26, Z21, Z31); WK(Z29, Z12, Z0); ROUND(0x96, Z1, Z5, Z3, Z4, Z0, Z2)
	SCHED(Z30, Z27, Z22, Z16); WK(Z30, Z12, Z4); ROUND(0x96, Z0, Z1, Z2, Z3, Z4, Z5)
	SCHED(Z31, Z28, Z23, Z17); WK(Z31, Z12, Z3); ROUND(0x96, Z4, Z0, Z5, Z2, Z3, Z1)

	// add the initial value, byte-swap, and scatter A..E
	VPADDD.BCST sha1H<>+0(SB), Z3, Z3
	VPADDD.BCST sha1H<>+4(SB), Z4, Z4
	VPADDD.BCST sha1H<>+8(SB), Z1, Z1
	VPADDD.BCST sha1H<>+12(SB), Z5, Z5
	VPADDD.BCST sha1H<>+16(SB), Z2, Z2
	VPSHUFB     Z8, Z3, Z3
	VPSHUFB     Z8, Z4, Z4
	VPSHUFB     Z8, Z1, Z1
	VPSHUFB     Z8, Z5, Z5
	VPSHUFB     Z8, Z2, Z2
	KXNORW      K0, K0, K1
	VPSCATTERDD Z3, K1, (DI)(Z13*4)
	KXNORW      K0, K0, K1
	VPSCATTERDD Z4, K1, 4(DI)(Z13*4)
	KXNORW      K0, K0, K1
	VPSCATTERDD Z1, K1, 8(DI)(Z13*4)
	KXNORW      K0, K0, K1
	VPSCATTERDD Z5, K1, 12(DI)(Z13*4)
	KXNORW      K0, K0, K1
	VPSCATTERDD Z2, K1, 16(DI)(Z13*4)

	ADDQ $320, DI
	ADDQ $16, CX
	DECQ DX
	JNZ  loop16

done16:
	VZEROUPPER
	RET
