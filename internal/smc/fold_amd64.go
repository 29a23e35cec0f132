//go:build !purego

package smc

// useAVX is whether rowKernel runs the AVX assembly: the CPU has AVX
// and the OS saves the YMM registers. Only tests change it.
var useAVX = cpuHasAVX()

// rowKernel is addRows after its checks: the AVX kernel for rows of
// four to eight cells, else the Go loop.
func rowKernel(jobs []rowJob, hops []hop, tab, rows, cum []float64, w, at, stride int) {
	if useAVX && w >= 4 {
		addRowsAVX(jobs, hops, tab, rows, cum, w, at, stride)
		return
	}
	addRowsGo(jobs, hops, tab, rows, cum, w, at, stride)
}

// addRowsAVX is addRowsGo in AVX lanes (fold_amd64.s).
//
//go:noescape
func addRowsAVX(jobs []rowJob, hops []hop, tab, rows, cum []float64, w, at, stride int)

// cpuHasAVX asks CPUID for AVX and XGETBV for the OS's YMM state.
func cpuHasAVX() bool
