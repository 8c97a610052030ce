//go:build amd64 && !purego

package tensor

// axpy computes y[j] += a*x[j] for j < len(y) with AVX2: VMULPD then VADDPD
// across j (never FMA), a VEX scalar tail, VZEROUPPER on return. It reads
// len(y) elements of x; callers reslice x to len(y) first, so the bounds
// check is Go's.
//
//go:noescape
func axpy(a float64, x, y []float64)

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0, the register-state mask the
// operating system has enabled.
func xgetbv() (eax, edx uint32)

// haveSIMD reports whether the CPU has AVX2 and the operating system saves
// the YMM registers across context switches.
func haveSIMD() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		xmmYmm  = 1<<1 | 1<<2
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&xmmYmm != xmmYmm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}
