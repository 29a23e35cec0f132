package smc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// loopRow is the row kernel's contract written as the plain loop: each
// cell adds its hops' terms in hop order, then next = prev + row.
func loopRow(row, prev, next []float64, hops []hop, tab []float64, at int) {
	for _, hp := range hops {
		for c := range row {
			row[c] += hp.wg * tab[hp.src+at+c]
		}
	}
	for c := range next {
		next[c] = prev[c] + row[c]
	}
}

// randomCell draws a table or weight value: ordinary fractions most of
// the time, and now and then a zero, a negative, a subnormal or a huge
// value, so products and sums round and underflow (but stay finite: no
// NaN, whose payload the two forms need not agree on).
func randomCell(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return -rng.Float64()
	case 2:
		return rng.Float64() * 1e-310
	case 3:
		return rng.Float64() * 1e150
	}
	return rng.Float64()
}

// TestAddRowMatchesLoop pins the row kernel — SSE2 lanes on amd64, the
// plain Go loop elsewhere and under the purego tag — bit for bit to
// loopRow at every width from 1 to 16 (one pass up to eight cells, even
// chunks above), over random hop lists whose reads reach the first and
// the last cell of the table, with the fold into the cumulative rows
// and without it. Guard cells around row and next must come back
// untouched.
func TestAddRowMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const guard = 2
	for w := 1; w <= 16; w++ {
		for trial := 0; trial < 40; trial++ {
			tab := make([]float64, w*(1+rng.Intn(30))+rng.Intn(w))
			for c := range tab {
				tab[c] = randomCell(rng)
			}
			at := rng.Intn(len(tab)-w+1) - rng.Intn(len(tab)) // sources shift by at
			hops := make([]hop, rng.Intn(80))
			var run hopRun
			for x := range hops {
				src := rng.Intn(len(tab)-w+1) - at
				switch x {
				case 0:
					src = -at // the table's first cell
				case 1:
					src = len(tab) - w - at // its last cell
				}
				hops[x] = hop{src: src, wg: randomCell(rng)}
				run.add(src)
			}
			for _, fold := range []bool{true, false} {
				where := fmt.Sprintf("w=%d trial %d fold=%v (%d hops)", w, trial, fold, len(hops))
				rows := [2][]float64{make([]float64, w+2*guard), make([]float64, w+2*guard)}
				nexts := [2][]float64{make([]float64, w+2*guard), make([]float64, w+2*guard)}
				prev := make([]float64, w)
				for c := range rows[0] {
					rows[0][c] = randomCell(rng)
					nexts[0][c] = math.NaN()
				}
				for c := range prev {
					prev[c] = randomCell(rng)
				}
				copy(rows[1], rows[0])
				copy(nexts[1], nexts[0])
				var p, q, qWant []float64
				if fold {
					p, q, qWant = prev, nexts[0][guard:guard+w], nexts[1][guard:guard+w]
				}
				addRow(rows[0][guard:guard+w], p, q, hops, run.lo, run.hi, tab, at)
				loopRow(rows[1][guard:guard+w], p, qWant, hops, tab, at)
				requireBits(t, where+": row", rows[0], rows[1])
				requireBits(t, where+": next", nexts[0], nexts[1])
			}
		}
	}
}

// requireBits compares two slices cell for cell by bit pattern.
func requireBits(t *testing.T, where string, got, want []float64) {
	t.Helper()
	for c := range want {
		if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
			t.Fatalf("%s: cell %d = %v (%#x), want %v (%#x)", where, c,
				got[c], math.Float64bits(got[c]), want[c], math.Float64bits(want[c]))
		}
	}
}

// TestAddRowChecksEveryRead: a hop whose source lies one cell before the
// table or whose row runs one cell past its end panics in addRow, before
// the kernel reads anything.
func TestAddRowChecksEveryRead(t *testing.T) {
	for _, w := range []int{1, 4, 5, 8, 9, 16} {
		tab := make([]float64, 10*w)
		const at = 3
		for _, src := range []int{-at - 1, len(tab) - w - at + 1} {
			hops := []hop{{src: 0, wg: 1}, {src: src, wg: 1}}
			var run hopRun
			for _, hp := range hops {
				run.add(hp.src)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("w=%d src=%d: read outside a %d-cell table did not panic", w, src, len(tab))
					}
				}()
				addRow(make([]float64, w), nil, nil, hops, run.lo, run.hi, tab, at)
			}()
		}
	}
}
