package smc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// forEachKernel runs f once per row kernel this binary can run — the
// AVX assembly where the CPU has it, and the Go loop — and restores
// the kernel the package picked.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	picked := useAVX
	defer func() { useAVX = picked }()
	for _, avx := range []bool{true, false} {
		if avx && !picked {
			continue
		}
		useAVX = avx
		name := "loop"
		if avx {
			name = "avx"
		}
		t.Run(name, f)
	}
}

// loopRows is the row kernel's contract written as index arithmetic
// over whole rows of any width: each job's row starts as surv in cell
// lane and 0 elsewhere when folding, else as it is; each cell adds its
// hops' terms in hop order; a fold then writes next = prev + row.
func loopRows(jobs []rowJob, hops []hop, tab, rows, cum []float64, w, at, stride int) {
	for _, j := range jobs {
		r := j.row + at
		if cum != nil {
			for c := 0; c < w; c++ {
				rows[r+c] = 0
			}
			if j.lane >= 0 {
				rows[r+j.lane] = j.surv
			}
		}
		for x := j.first; x < j.first+j.n; x++ {
			for c := 0; c < w; c++ {
				rows[r+c] += hops[x].wg * tab[hops[x].src+at+c]
			}
		}
		if cum != nil {
			p := j.cum + at
			for c := 0; c < w; c++ {
				cum[p+stride+c] = cum[p+c] + rows[r+c]
			}
		}
	}
}

// addRowsChunked is a production caller's use of addRows for rows of
// any width: one call per rowChunk, each job's lane shifted into the
// chunk that holds it.
func addRowsChunked(jobs []rowJob, hops []hop, run hopRun, tab, rows, cum []float64, w, at, stride int) {
	chunk := make([]rowJob, len(jobs))
	for c0, cw := 0, 0; c0 < w; c0 += cw {
		cw = rowChunk(w - c0)
		for x, j := range jobs {
			if j.lane -= c0; j.lane < 0 || j.lane >= cw {
				j.lane = -1
			}
			chunk[x] = j
		}
		addRows(chunk, hops, run, tab, rows, cum, cw, at+c0, stride)
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

// rowCase is one random kernel call: jobs whose rows, each between
// guard cells, share one table, and whose cumulative rows (prev, then
// next stride cells on) share another, with their own guard cells.
type rowCase struct {
	jobs       []rowJob
	hops       []hop
	run        hopRun
	tab        []float64
	rows, cum  []float64
	w, at, str int
}

// newRowCase draws a call of nJobs rows of w cells. lens fixes the
// first two jobs' hop counts (-1: random). Each job's hops are its own
// run of one shared list; the first hop reads the table's first cell
// and the second its last.
func newRowCase(rng *rand.Rand, w, nJobs int, lens [2]int) *rowCase {
	const guard = 2
	rc := &rowCase{w: w, str: w + guard + rng.Intn(3)}
	rc.tab = make([]float64, w*(1+rng.Intn(30))+rng.Intn(w))
	for c := range rc.tab {
		rc.tab[c] = randomCell(rng)
	}
	rc.at = rng.Intn(len(rc.tab)-w+1) - rng.Intn(len(rc.tab)) // sources shift by at
	rc.rows = make([]float64, guard+nJobs*(w+guard))
	rc.cum = make([]float64, guard+nJobs*(rc.str+w+guard))
	for c := range rc.rows {
		rc.rows[c] = randomCell(rng)
	}
	for c := range rc.cum {
		rc.cum[c] = math.NaN()
	}
	for x := 0; x < nJobs; x++ {
		n := rng.Intn(80)
		if x < 2 && lens[x] >= 0 {
			n = lens[x]
		}
		j := rowJob{
			first: len(rc.hops), n: n,
			row:  guard + x*(w+guard) - rc.at,
			cum:  guard + x*(rc.str+w+guard) - rc.at,
			lane: rng.Intn(w+1) - 1,
			surv: randomCell(rng),
		}
		for c := 0; c < w; c++ {
			rc.cum[j.cum+rc.at+c] = randomCell(rng) // prev
		}
		for k := 0; k < n; k++ {
			src := rng.Intn(len(rc.tab)-w+1) - rc.at
			switch len(rc.hops) {
			case 0:
				src = -rc.at // the table's first cell
			case 1:
				src = len(rc.tab) - w - rc.at // its last cell
			}
			rc.hops = append(rc.hops, hop{src: src, wg: randomCell(rng)})
			rc.run.add(src)
		}
		rc.jobs = append(rc.jobs, j)
	}
	return rc
}

// TestAddRowMatchesLoop pins the row kernel — AVX lanes on amd64 when
// the CPU has them, the plain Go loop otherwise, and both in one binary
// — bit for bit to loopRows at every width from 1 to 16 (one call up to
// eight cells, even chunks above), over calls of one to five rows, so
// that rows go in pairs with an odd one left, with hop lists of unequal
// length, one empty or both, whose reads reach the first and the last
// cell of the table, with the fold into the cumulative rows and
// without it. Guard cells around rows and cumulative rows must come
// back untouched.
func TestAddRowMatchesLoop(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(52))
		lens := [][2]int{{-1, -1}, {0, -1}, {-1, 0}, {0, 0}, {3, 70}, {70, 3}}
		for w := 1; w <= 16; w++ {
			for trial := 0; trial < 60; trial++ {
				nJobs, pattern := 1+trial%5, lens[trial%len(lens)]
				for _, fold := range []bool{true, false} {
					rc := newRowCase(rng, w, nJobs, pattern)
					where := fmt.Sprintf("w=%d trial %d fold=%v (%d rows, hop counts %v)", w, trial, fold, nJobs, rc.jobs)
					rows, cum := append([]float64(nil), rc.rows...), append([]float64(nil), rc.cum...)
					var c, cWant []float64
					if fold {
						c, cWant = rc.cum, cum
					}
					addRowsChunked(rc.jobs, rc.hops, rc.run, rc.tab, rc.rows, c, w, rc.at, rc.str)
					loopRows(rc.jobs, rc.hops, rc.tab, rows, cWant, w, rc.at, rc.str)
					requireBits(t, where+": rows", rc.rows, rows)
					requireBits(t, where+": cum", rc.cum, cum)
				}
			}
		}
	})
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

// TestAddRowChecksEveryRead: in either row of a pair, a hop whose
// source lies one cell before the table or whose row runs one cell past
// its end, a row or a cumulative row one cell outside its table, or a
// lane outside the row, panics in addRows before the kernel writes
// anything; so does a width the kernel does not take.
func TestAddRowChecksEveryRead(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		for _, w := range []int{1, 3, 4, 5, 8} {
			for x := 0; x < 2; x++ {
				breaks := []struct {
					name string
					brk  func(rc *rowCase)
				}{
					{"source before the table", func(rc *rowCase) { rc.hops[rc.jobs[x].first].src = -rc.at - 1 }},
					{"source past the table", func(rc *rowCase) { rc.hops[rc.jobs[x].first].src = len(rc.tab) - w - rc.at + 1 }},
					{"row before its table", func(rc *rowCase) { rc.jobs[x].row = -rc.at - 1 }},
					{"row past its table", func(rc *rowCase) { rc.jobs[x].row = len(rc.rows) - w - rc.at + 1 }},
					{"cum before its table", func(rc *rowCase) { rc.jobs[x].cum = -rc.at - 1 }},
					{"next past its table", func(rc *rowCase) { rc.jobs[x].cum = len(rc.cum) - rc.str - w - rc.at + 1 }},
					{"lane past the row", func(rc *rowCase) { rc.jobs[x].lane = w }},
					{"lane below -1", func(rc *rowCase) { rc.jobs[x].lane = -2 }},
					{"hops past the list", func(rc *rowCase) { rc.jobs[x].n = len(rc.hops) - rc.jobs[x].first + 1 }},
				}
				for _, b := range breaks {
					rc := newRowCase(rng, w, 2, [2]int{5, 5})
					b.brk(rc)
					rc.run = hopRun{}
					for _, hp := range rc.hops {
						rc.run.add(hp.src)
					}
					requirePanicsUntouched(t, fmt.Sprintf("w=%d row %d: %s", w, x, b.name), rc, w)
				}
			}
		}
		rc := newRowCase(rng, 8, 2, [2]int{5, 5})
		requirePanicsUntouched(t, "w=9", rc, 9)
	})
}

// requirePanicsUntouched calls addRows on rc at width w, folding, and
// requires a panic with every row and cumulative cell as it was.
func requirePanicsUntouched(t *testing.T, where string, rc *rowCase, w int) {
	t.Helper()
	rows, cum := append([]float64(nil), rc.rows...), append([]float64(nil), rc.cum...)
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: did not panic", where)
			}
		}()
		addRows(rc.jobs, rc.hops, rc.run, rc.tab, rc.rows, rc.cum, w, rc.at, rc.str)
	}()
	requireBits(t, where+": rows", rc.rows, rows)
	requireBits(t, where+": cum", rc.cum, cum)
}
