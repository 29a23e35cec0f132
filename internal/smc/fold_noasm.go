//go:build !amd64 || purego

package smc

var useAVX = false // no assembly in this build; the tests read it

// rowKernel is addRows after its checks: here always the Go loop.
func rowKernel(jobs []rowJob, hops []hop, tab, rows, cum []float64, w, at, stride int) {
	addRowsGo(jobs, hops, tab, rows, cum, w, at, stride)
}
