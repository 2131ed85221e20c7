#include "textflag.h"

// The 512-bit product is held in R8…R15 (limbs r0…r7), CX stays zero, and
// AX and BX take the halves of each MULX. Two carry chains run side by
// side: in ROW and FOLD, ADCX (CF) adds the low halves and ADOX (OF) the
// high halves. MULX leaves the flags alone, so it sits inside the chains.

// FOLD reduces R8…R15 mod p into R8…R11 exactly as mulGeneric does, so
// the limbs come out the same. With DX = pFold: r0…r3 + pFold·(r4…r7)
// leaves a fifth limb m4 < 2^34 in R12; r0…r3 + m4·pFold carries c; and
// r0 + c·pFold, r1 + c ends it. CX must be zero.
#define FOLD \
	MOVQ  $0x1000003d1, DX; \
	XORQ  AX, AX; \
	MULXQ R12, AX, BX; \
	ADCXQ AX, R8; \
	ADOXQ BX, R9; \
	MULXQ R13, AX, BX; \
	ADCXQ AX, R9; \
	ADOXQ BX, R10; \
	MULXQ R14, AX, BX; \
	ADCXQ AX, R10; \
	ADOXQ BX, R11; \
	MULXQ R15, AX, R12; \
	ADCXQ AX, R11; \
	ADCXQ CX, R12; \
	ADOXQ CX, R12; \
	MULXQ R12, AX, BX; \
	ADDQ  AX, R8; \
	ADCQ  BX, R9; \
	ADCQ  CX, R10; \
	ADCQ  CX, R11; \
	SBBQ  AX, AX; \
	ANDQ  DX, AX; \
	ADDQ  AX, R8; \
	ADCQ  CX, R9

// ROW adds x_i·y (DX = x_i, y at DI) into the five limbs lo…top, where
// top is zeroed here; CF and OF must be clear.
#define ROW(r0, r1, r2, r3, top) \
	XORQ  top, top; \
	MULXQ 0(DI), AX, BX; \
	ADCXQ AX, r0; \
	ADOXQ BX, r1; \
	MULXQ 8(DI), AX, BX; \
	ADCXQ AX, r1; \
	ADOXQ BX, r2; \
	MULXQ 16(DI), AX, BX; \
	ADCXQ AX, r2; \
	ADOXQ BX, r3; \
	MULXQ 24(DI), AX, BX; \
	ADCXQ AX, r3; \
	ADOXQ BX, top; \
	ADCXQ CX, top

// func fieldMul(z, x, y *fieldVal)
TEXT ·fieldMul(SB), NOSPLIT, $0-24
	CMPB ·hasMULX(SB), $1
	JNE  generic
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI

	// Row 0 writes r0…r4 in one ADC chain.
	MOVQ  0(SI), DX
	MULXQ 0(DI), R8, R9
	MULXQ 8(DI), AX, R10
	ADDQ  AX, R9
	MULXQ 16(DI), AX, R11
	ADCQ  AX, R10
	MULXQ 24(DI), AX, R12
	ADCQ  AX, R11
	ADCQ  $0, R12

	// Rows 1…3, each one limb higher. XORQ top, top in ROW clears CF
	// and OF; CX = 0 throughout.
	XORQ CX, CX
	MOVQ 8(SI), DX
	ROW(R9, R10, R11, R12, R13)
	MOVQ 16(SI), DX
	ROW(R10, R11, R12, R13, R14)
	MOVQ 24(SI), DX
	ROW(R11, R12, R13, R14, R15)

	FOLD
	MOVQ z+0(FP), DI
	MOVQ R8, 0(DI)
	MOVQ R9, 8(DI)
	MOVQ R10, 16(DI)
	MOVQ R11, 24(DI)
	RET

generic:
	JMP ·mulGeneric(SB)

// func fieldSqr(z, x *fieldVal)
TEXT ·fieldSqr(SB), NOSPLIT, $0-16
	CMPB ·hasMULX(SB), $1
	JNE  generic
	MOVQ x+8(FP), SI

	// The six cross products x_i·x_j (i < j) into r1…r6: the ADCX chain
	// sums x0·x1, x0·x2, x0·x3, x1·x3 and x2·x3, the ADOX chain adds
	// x1·x2 on top.
	XORQ  CX, CX
	MOVQ  0(SI), DX
	MULXQ 8(SI), R9, R10
	MULXQ 16(SI), AX, R11
	ADCXQ AX, R10
	MULXQ 24(SI), AX, R12
	ADCXQ AX, R11
	MOVQ  8(SI), DX
	MULXQ 24(SI), AX, R13
	ADCXQ AX, R12
	MULXQ 16(SI), AX, BX
	ADOXQ AX, R11
	ADOXQ BX, R12
	MOVQ  16(SI), DX
	MULXQ 24(SI), AX, R14
	ADCXQ AX, R13
	ADOXQ CX, R13
	ADCXQ CX, R14
	ADOXQ CX, R14

	// Double the cross products (ADCX r, r shifts one bit up the chain)
	// while the ADOX chain adds the squares x_i² on the diagonal.
	XORQ  R15, R15
	MOVQ  0(SI), DX
	MULXQ DX, R8, AX
	ADCXQ R9, R9
	ADOXQ AX, R9
	MOVQ  8(SI), DX
	MULXQ DX, AX, BX
	ADCXQ R10, R10
	ADOXQ AX, R10
	ADCXQ R11, R11
	ADOXQ BX, R11
	MOVQ  16(SI), DX
	MULXQ DX, AX, BX
	ADCXQ R12, R12
	ADOXQ AX, R12
	ADCXQ R13, R13
	ADOXQ BX, R13
	MOVQ  24(SI), DX
	MULXQ DX, AX, BX
	ADCXQ R14, R14
	ADOXQ AX, R14
	ADCXQ R15, R15
	ADOXQ BX, R15

	FOLD
	MOVQ z+0(FP), DI
	MOVQ R8, 0(DI)
	MOVQ R9, 8(DI)
	MOVQ R10, 16(DI)
	MOVQ R11, 24(DI)
	RET

generic:
	JMP ·sqrGeneric(SB)

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET
