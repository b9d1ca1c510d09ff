//go:build amd64 && !purego

package kernels

// Implemented in cpu_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU and OS can run the avx2 kernel set:
// AVX2 itself, BMI1+BMI2 (the Go drivers' scalar tails lean on
// LZCNT/SHRX-class lowering, both Haswell-and-later like AVX2), and
// OS-enabled XMM+YMM state (OSXSAVE set and XCR0 bits 1|2).
func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsaveAVX = 1<<27 | 1<<28
	if ecx1&osxsaveAVX != osxsaveAVX {
		return false
	}
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const bmi1AVX2BMI2 = 1<<3 | 1<<5 | 1<<8
	return ebx7&bmi1AVX2BMI2 == bmi1AVX2BMI2
}
