//go:build !amd64 || purego

package smc

// addHops is addRow's kernel, here a plain loop: each cell adds every
// hop's term in hop order, then next = prev + row when next is not
// empty. On amd64 the same sums run in SSE2 lanes (fold_amd64.s).
func addHops(row, prev, next []float64, hops []hop, tab []float64, at int) {
	for _, hp := range hops {
		s := tab[hp.src+at:][:len(row)]
		for c := range row {
			row[c] += hp.wg * s[c]
		}
	}
	for c := range next {
		next[c] = prev[c] + row[c]
	}
}
