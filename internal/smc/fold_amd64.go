//go:build !purego

package smc

// addHops is addRow's kernel in SSE2 assembly (fold_amd64.s); the loop
// in fold_generic.go states what it computes, bit for bit.
//
//go:noescape
func addHops(row, prev, next []float64, hops []hop, tab []float64, at int)
