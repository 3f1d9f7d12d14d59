#include "textflag.h"

// classifyConsts holds one 32-byte splat per Masks field, in field
// order: '"', '\\', '{', '}', '[', ']', ':', ',' and, for whitespace,
// 0x20 (a byte is whitespace when min(byte, 0x20) == byte).
DATA classifyConsts<>+0x000(SB)/8, $0x2222222222222222
DATA classifyConsts<>+0x008(SB)/8, $0x2222222222222222
DATA classifyConsts<>+0x010(SB)/8, $0x2222222222222222
DATA classifyConsts<>+0x018(SB)/8, $0x2222222222222222
DATA classifyConsts<>+0x020(SB)/8, $0x5c5c5c5c5c5c5c5c
DATA classifyConsts<>+0x028(SB)/8, $0x5c5c5c5c5c5c5c5c
DATA classifyConsts<>+0x030(SB)/8, $0x5c5c5c5c5c5c5c5c
DATA classifyConsts<>+0x038(SB)/8, $0x5c5c5c5c5c5c5c5c
DATA classifyConsts<>+0x040(SB)/8, $0x7b7b7b7b7b7b7b7b
DATA classifyConsts<>+0x048(SB)/8, $0x7b7b7b7b7b7b7b7b
DATA classifyConsts<>+0x050(SB)/8, $0x7b7b7b7b7b7b7b7b
DATA classifyConsts<>+0x058(SB)/8, $0x7b7b7b7b7b7b7b7b
DATA classifyConsts<>+0x060(SB)/8, $0x7d7d7d7d7d7d7d7d
DATA classifyConsts<>+0x068(SB)/8, $0x7d7d7d7d7d7d7d7d
DATA classifyConsts<>+0x070(SB)/8, $0x7d7d7d7d7d7d7d7d
DATA classifyConsts<>+0x078(SB)/8, $0x7d7d7d7d7d7d7d7d
DATA classifyConsts<>+0x080(SB)/8, $0x5b5b5b5b5b5b5b5b
DATA classifyConsts<>+0x088(SB)/8, $0x5b5b5b5b5b5b5b5b
DATA classifyConsts<>+0x090(SB)/8, $0x5b5b5b5b5b5b5b5b
DATA classifyConsts<>+0x098(SB)/8, $0x5b5b5b5b5b5b5b5b
DATA classifyConsts<>+0x0a0(SB)/8, $0x5d5d5d5d5d5d5d5d
DATA classifyConsts<>+0x0a8(SB)/8, $0x5d5d5d5d5d5d5d5d
DATA classifyConsts<>+0x0b0(SB)/8, $0x5d5d5d5d5d5d5d5d
DATA classifyConsts<>+0x0b8(SB)/8, $0x5d5d5d5d5d5d5d5d
DATA classifyConsts<>+0x0c0(SB)/8, $0x3a3a3a3a3a3a3a3a
DATA classifyConsts<>+0x0c8(SB)/8, $0x3a3a3a3a3a3a3a3a
DATA classifyConsts<>+0x0d0(SB)/8, $0x3a3a3a3a3a3a3a3a
DATA classifyConsts<>+0x0d8(SB)/8, $0x3a3a3a3a3a3a3a3a
DATA classifyConsts<>+0x0e0(SB)/8, $0x2c2c2c2c2c2c2c2c
DATA classifyConsts<>+0x0e8(SB)/8, $0x2c2c2c2c2c2c2c2c
DATA classifyConsts<>+0x0f0(SB)/8, $0x2c2c2c2c2c2c2c2c
DATA classifyConsts<>+0x0f8(SB)/8, $0x2c2c2c2c2c2c2c2c
DATA classifyConsts<>+0x100(SB)/8, $0x2020202020202020
DATA classifyConsts<>+0x108(SB)/8, $0x2020202020202020
DATA classifyConsts<>+0x110(SB)/8, $0x2020202020202020
DATA classifyConsts<>+0x118(SB)/8, $0x2020202020202020
GLOBL classifyConsts<>(SB), RODATA|NOPTR, $0x120

// MASK64 joins the byte flags in Y3 (bytes 0-31) and Y4 (bytes 32-63)
// into one 64-bit mask and stores it at offset out of the Masks in DI.
#define MASK64(out) \
	VPMOVMSKB Y3, AX; \
	VPMOVMSKB Y4, BX; \
	SHLQ      $32, BX; \
	ORQ       BX, AX; \
	MOVQ      AX, out(DI)

// EQ64 compares the block in Y0:Y1 against the splat at offset c of
// classifyConsts and stores the mask at offset out of the Masks in DI.
#define EQ64(c, out) \
	VMOVDQU  classifyConsts<>+c(SB), Y2; \
	VPCMPEQB Y0, Y2, Y3; \
	VPCMPEQB Y1, Y2, Y4; \
	MASK64(out)

// func classifyAVX2(m *Masks, p *[64]byte)
TEXT ·classifyAVX2(SB), NOSPLIT, $0-16
	MOVQ    m+0(FP), DI
	MOVQ    p+8(FP), SI
	VMOVDQU 0(SI), Y0
	VMOVDQU 32(SI), Y1
	EQ64(0x000, 0)  // Quote
	EQ64(0x020, 8)  // Backslash
	EQ64(0x040, 16) // LBrace
	EQ64(0x060, 24) // RBrace
	EQ64(0x080, 32) // LBracket
	EQ64(0x0a0, 40) // RBracket
	EQ64(0x0c0, 48) // Colon
	EQ64(0x0e0, 56) // Comma

	// WS: unsigned byte <= 0x20, which is SWAR's LtMask(0x21) for every
	// byte value, 0x80-0xff included.
	VMOVDQU  classifyConsts<>+0x100(SB), Y2
	VPMINUB  Y0, Y2, Y3
	VPMINUB  Y1, Y2, Y4
	VPCMPEQB Y0, Y3, Y3
	VPCMPEQB Y1, Y4, Y4
	MASK64(64)
	VZEROUPPER
	RET

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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
