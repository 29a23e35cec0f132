package smc

// addRowsGo is the row kernel as a plain loop, and the AVX kernel's
// contract (see rowJob): each cell adds every hop's term in hop order.
// It runs rows under four cells, and every row on other architectures,
// under the purego tag and on an amd64 CPU without AVX.
func addRowsGo(jobs []rowJob, hops []hop, tab, rows, cum []float64, w, at, stride int) {
	fold := len(cum) > 0
	for _, j := range jobs {
		row := rows[j.row+at:][:w]
		if fold {
			clear(row)
			if j.lane >= 0 {
				row[j.lane] = j.surv
			}
		}
		for _, hp := range hops[j.first:][:j.n] {
			s := tab[hp.src+at:][:w]
			for c := range row {
				row[c] += hp.wg * s[c]
			}
		}
		if fold {
			prev, next := cum[j.cum+at:][:w], cum[j.cum+at+stride:][:w]
			for c := range next {
				next[c] = prev[c] + row[c]
			}
		}
	}
}
