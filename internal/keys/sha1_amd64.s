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
