package pdn

// useAVX selects the packed kernel for the networks it can step. It is
// set once, from the CPU's AVX support, and tests clear it to run every
// network on the scalar kernel.
var useAVX = haveAVX()

// haveAVX reports whether the CPU implements AVX and the OS saves the YMM
// registers: CPUID leaf 1 reports AVX and OSXSAVE, and XCR0 has the SSE
// and AVX state bits set.
func haveAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// stepPack runs k substeps of the pack's four lanes at dt, each lane on
// its own load, coefficients and state, and leaves each lane's state and
// pre-ripple die voltage in rows. Lane l performs exactly the operations
// of stepLanes' substep for a network with feedforward and integral
// regulation, in the same order (lanes_amd64.s).
//
//go:noescape
func stepPack(rows *packRows, dt float64, k int)
