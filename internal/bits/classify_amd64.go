package bits

// hasAVX2 selects Classify's kernel, once per process.
var hasAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches: CPUID leaf 7 EBX bit 5 (AVX2), leaf
// 1 ECX bits 27 and 28 (OSXSAVE, AVX), and XCR0 bits 1 and 2 (SSE and
// AVX state enabled by the OS).
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0b110 != 0b110 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// classifyAVX2 is the vector half of Classify: two 32-byte loads, one
// compare per class and half, two VPMOVMSKB per class.
//
//go:noescape
func classifyAVX2(m *Masks, p *[WordSize]byte)

// cpuid executes CPUID with EAX = eaxArg and ECX = ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)
