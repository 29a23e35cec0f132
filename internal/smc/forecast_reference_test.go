package smc

// Reference implementations, kept verbatim from the code they replaced,
// that the equality tests pin the current paths bit-identical to:
//
//   - refEstimator / refModel / refModel.WriteJSON: the three-level-map
//     Equation 13 estimator, its map-of-maps kernel and its dump in the
//     canonical form of countsJSON, as they were before the flat kernel;
//   - refSojournData / refSojourn: the per-state sojourn tables built by
//     iterating and sorting those maps, with one dense n-wide destination
//     vector per duration, as they were before the flat non-zero ranges;
//   - refFresh: the fresh-profile DP that scanned those dense next[x]
//     vectors through an `at` closure, as it was before the hop-compiled
//     DP;
//   - refFreshCum / refForecast / refOutOfBidFraction / refMinimalBid:
//     the older slice-of-slices DP and the linear out-of-bid scans from
//     before the flat-matrix/suffix-sum rewrite.
//
// Every reference reads a refModel frozen by refEstimator, never a
// Model, so nothing the code under test builds feeds its own oracle.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/market"
	"repro/internal/trace"
)

type kernelEntry struct {
	to    int
	count int64
}

// refEstimator is the pre-flat-kernel Estimator.
type refEstimator struct {
	maxSojourn int64
	// counts[i][j][k] = N^k_{i,j}: transitions from price i to price j
	// after a sojourn of k minutes. Prices are keyed in micro-dollars.
	counts map[market.Money]map[market.Money]map[int64]int64
	// out[i] = N_i: observed departures from price i.
	out          map[market.Money]int64
	observations int64
}

func newRefEstimator(maxSojourn int64) *refEstimator {
	if maxSojourn <= 0 {
		maxSojourn = DefaultMaxSojourn
	}
	return &refEstimator{
		maxSojourn: maxSojourn,
		counts:     make(map[market.Money]map[market.Money]map[int64]int64),
		out:        make(map[market.Money]int64),
	}
}

func (e *refEstimator) Observe(tr *trace.Trace) {
	runs := tr.Sojourns()
	for i := 0; i+1 < len(runs); i++ {
		k := runs[i].Minutes
		if k < 1 {
			k = 1
		}
		if k > e.maxSojourn {
			k = e.maxSojourn
		}
		e.add(runs[i].Price, runs[i+1].Price, k)
	}
}

func (e *refEstimator) add(from, to market.Money, k int64) {
	byTo, ok := e.counts[from]
	if !ok {
		byTo = make(map[market.Money]map[int64]int64)
		e.counts[from] = byTo
	}
	byK, ok := byTo[to]
	if !ok {
		byK = make(map[int64]int64)
		byTo[to] = byK
	}
	byK[k]++
	e.out[from]++
	e.observations++
}

// refModel is the pre-flat-kernel Model: a map from sojourn to
// destination entries per source state, plus the idx and sojPMF maps.
type refModel struct {
	maxSojourn int64
	prices     []market.Money
	idx        map[market.Money]int
	out        []int64
	kernel     []map[int64][]kernelEntry
	sojPMF     []map[int64]float64
}

func (e *refEstimator) Model() (*refModel, error) {
	if e.observations == 0 {
		return nil, fmt.Errorf("smc: no transitions observed")
	}
	priceSet := map[market.Money]bool{}
	for from, byTo := range e.counts {
		priceSet[from] = true
		for to := range byTo {
			priceSet[to] = true
		}
	}
	prices := make([]market.Money, 0, len(priceSet))
	for p := range priceSet {
		prices = append(prices, p)
	}
	sort.Slice(prices, func(a, b int) bool { return prices[a] < prices[b] })
	idx := make(map[market.Money]int, len(prices))
	for i, p := range prices {
		idx[p] = i
	}

	n := len(prices)
	m := &refModel{
		maxSojourn: e.maxSojourn,
		prices:     prices,
		idx:        idx,
		out:        make([]int64, n),
		kernel:     make([]map[int64][]kernelEntry, n),
		sojPMF:     make([]map[int64]float64, n),
	}
	for from, byTo := range e.counts {
		i := idx[from]
		m.out[i] = e.out[from]
		byK := make(map[int64]map[int]int64)
		for to, ks := range byTo {
			j := idx[to]
			for k, c := range ks {
				if byK[k] == nil {
					byK[k] = make(map[int]int64)
				}
				byK[k][j] += c
			}
		}
		m.kernel[i] = make(map[int64][]kernelEntry)
		m.sojPMF[i] = make(map[int64]float64)
		for k, js := range byK {
			var total int64
			entries := make([]kernelEntry, 0, len(js))
			for j, c := range js {
				entries = append(entries, kernelEntry{to: j, count: c})
				total += c
			}
			sort.Slice(entries, func(a, b int) bool { return entries[a].to < entries[b].to })
			m.kernel[i][k] = entries
			m.sojPMF[i][k] = float64(total) / float64(m.out[i])
		}
	}
	return m, nil
}

func (m *refModel) Kernel(si, sj market.Money, k int64) float64 {
	i, ok := m.idx[si]
	if !ok || m.out[i] == 0 {
		return 0
	}
	j, ok := m.idx[sj]
	if !ok {
		return 0
	}
	for _, e := range m.kernel[i][k] {
		if e.to == j {
			return float64(e.count) / float64(m.out[i])
		}
	}
	return 0
}

func (m *refModel) SojournPMF(p market.Money, k int64) float64 {
	i, ok := m.idx[p]
	if !ok {
		return 0
	}
	return m.sojPMF[i][k]
}

// jsonModel is a model's canonical dump: the sojourn cap, the price
// states, the out counts and every kernel cell in (from, sojourn, to)
// order, so equal models dump to equal bytes.
type jsonModel struct {
	MaxSojourn int64            `json:"max_sojourn"`
	Prices     []int64          `json:"prices_micro_usd"`
	Out        []int64          `json:"out_counts"`
	Kernel     []jsonKernelCell `json:"kernel"`
}

type jsonKernelCell struct {
	From    int   `json:"from"`
	To      int   `json:"to"`
	Sojourn int64 `json:"sojourn"`
	Count   int64 `json:"count"`
}

func (m *refModel) WriteJSON(w io.Writer) error {
	jm := jsonModel{MaxSojourn: m.maxSojourn}
	for _, p := range m.prices {
		jm.Prices = append(jm.Prices, int64(p))
	}
	jm.Out = append(jm.Out, m.out...)
	for i := range m.prices {
		ks := make([]int64, 0, len(m.kernel[i]))
		for k := range m.kernel[i] {
			ks = append(ks, k)
		}
		sort.Slice(ks, func(a, b int) bool { return ks[a] < ks[b] })
		for _, k := range ks {
			for _, e := range m.kernel[i][k] {
				jm.Kernel = append(jm.Kernel, jsonKernelCell{
					From: i, To: e.to, Sojourn: k, Count: e.count,
				})
			}
		}
	}
	return json.NewEncoder(w).Encode(jm)
}

// nearestState is Model.nearestState as a linear scan: the closest
// price, ties going to the higher one.
func (m *refModel) nearestState(p market.Money) int {
	best := 0
	for i, q := range m.prices {
		if abs(q-p) <= abs(m.prices[best]-p) {
			best = i
		}
	}
	return best
}

func abs(d market.Money) market.Money {
	if d < 0 {
		return -d
	}
	return d
}

// refSojournData is sojournData with the dense destination table:
// next[x][j] = P(destination j | K = durations[x]), zeros included.
type refSojournData struct {
	durations []int64
	pmf       []float64
	next      []stateDist
	survival  []float64
	marginal  stateDist
	maxDur    int64
	absorbing bool
}

func (sd *refSojournData) survivalAt(a int64) float64 {
	if sd.absorbing {
		return 1
	}
	if a < 0 {
		a = 0
	}
	if a >= int64(len(sd.survival)) {
		return 0
	}
	return sd.survival[a]
}

// refSojourn rebuilds a state's sojourn tables from the map kernel,
// fully independently of the model's.
func refSojourn(m *refModel, i int) *refSojournData {
	n := len(m.prices)
	sd := &refSojournData{marginal: make(stateDist, n)}
	if m.out[i] == 0 {
		sd.absorbing = true
		return sd
	}
	durations := make([]int64, 0, len(m.kernel[i]))
	for k := range m.kernel[i] {
		durations = append(durations, k)
	}
	sortInt64s(durations)
	sd.durations = durations
	sd.maxDur = durations[len(durations)-1]
	sd.pmf = make([]float64, len(durations))
	sd.next = make([]stateDist, len(durations))
	for x, k := range durations {
		entries := m.kernel[i][k]
		var total int64
		for _, e := range entries {
			total += e.count
		}
		dist := make(stateDist, n)
		for _, e := range entries {
			dist[e.to] = float64(e.count) / float64(total)
			sd.marginal[e.to] += float64(e.count) / float64(m.out[i])
		}
		sd.next[x] = dist
		sd.pmf[x] = float64(total) / float64(m.out[i])
	}
	const maxDurations = 96
	if len(sd.durations) > maxDurations {
		group := (len(sd.durations) + maxDurations - 1) / maxDurations
		var mk []int64
		var mp []float64
		var mn []stateDist
		for lo := 0; lo < len(sd.durations); lo += group {
			hi := lo + group
			if hi > len(sd.durations) {
				hi = len(sd.durations)
			}
			var pSum, dSum float64
			dist := make(stateDist, n)
			for x := lo; x < hi; x++ {
				pSum += sd.pmf[x]
				dSum += float64(sd.durations[x]) * sd.pmf[x]
				for s, g := range sd.next[x] {
					dist[s] += g * sd.pmf[x]
				}
			}
			if pSum == 0 {
				continue
			}
			for s := range dist {
				dist[s] /= pSum
			}
			d := int64(dSum/pSum + 0.5)
			if d < 1 {
				d = 1
			}
			if len(mk) > 0 && mk[len(mk)-1] >= d {
				d = mk[len(mk)-1] + 1
			}
			mk = append(mk, d)
			mp = append(mp, pSum)
			mn = append(mn, dist)
		}
		sd.durations, sd.pmf, sd.next = mk, mp, mn
		sd.maxDur = mk[len(mk)-1]
	}
	sd.survival = make([]float64, sd.maxDur+2)
	tail := 1.0
	x := 0
	for a := int64(1); a <= sd.maxDur+1; a++ {
		sd.survival[a] = tail
		for x < len(sd.durations) && sd.durations[x] == a {
			tail -= sd.pmf[x]
			x++
		}
		if tail < 0 {
			tail = 0
		}
	}
	sd.survival[0] = 1
	return sd
}

func sortInt64s(s []int64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// refFreshCum is the pre-rewrite fresh-profile DP: per-minute stateDist
// allocations, cum[i][u] built by copy-then-add.
func refFreshCum(m *refModel, horizon int64, soj []*refSojournData) [][]stateDist {
	n := len(m.prices)
	occ := make([][]stateDist, n)
	for i := range occ {
		occ[i] = make([]stateDist, horizon)
	}
	for t := int64(0); t < horizon; t++ {
		for i := 0; i < n; i++ {
			sd := soj[i]
			v := make(stateDist, n)
			v[i] = sd.survivalAt(t + 1)
			for x, d := range sd.durations {
				if d > t {
					break
				}
				w := sd.pmf[x]
				if w == 0 {
					continue
				}
				dest := sd.next[x]
				prev := occ
				for j, g := range dest {
					if g == 0 {
						continue
					}
					src := prev[j][t-d]
					wg := w * g
					for s := range v {
						v[s] += wg * src[s]
					}
				}
			}
			occ[i][t] = v
		}
	}
	cum := make([][]stateDist, n)
	for i := 0; i < n; i++ {
		cum[i] = make([]stateDist, horizon+1)
		cum[i][0] = make(stateDist, n)
		for t := int64(0); t < horizon; t++ {
			c := make(stateDist, n)
			copy(c, cum[i][t])
			for s, o := range occ[i][t] {
				c[s] += o
			}
			cum[i][t+1] = c
		}
	}
	return cum
}

// at returns the cumulative occupancy vector u minutes after entering
// state i, as a window into the flat table.
func (fp *freshProfiles) at(i int, u int64) []float64 {
	off := fp.offset(i, u)
	return fp.cum[off : off+fp.n : off+fp.n]
}

// refFresh is the fresh-profile DP as it was before hop compilation: one
// flat zero-initialized occ array read through an `at` closure, every
// dense next[x] vector scanned for its non-zero destinations, and the
// cumulative table built in a second pass. It returns the flat cum
// table, indexed like freshProfiles.cum.
func refFresh(m *refModel, horizon int64) []float64 {
	n := len(m.prices)
	h := int(horizon)
	occ := make([]float64, n*h*n)
	at := func(i int, t int64) []float64 {
		off := (i*h + int(t)) * n
		return occ[off : off+n : off+n]
	}
	soj := make([]*refSojournData, n)
	for i := range soj {
		soj[i] = refSojourn(m, i)
	}
	for t := int64(0); t < horizon; t++ {
		for i := 0; i < n; i++ {
			sd := soj[i]
			v := at(i, t)
			// Still in the entered state through minute t iff K >= t+1.
			v[i] = sd.survivalAt(t + 1)
			// Departures at minute d <= t hand off to fresh profiles.
			for x, d := range sd.durations {
				if d > t {
					break
				}
				w := sd.pmf[x]
				if w == 0 {
					continue
				}
				dest := sd.next[x]
				for j, g := range dest {
					if g == 0 {
						continue
					}
					src := at(j, t-d)
					wg := w * g
					for s := range v {
						v[s] += wg * src[s]
					}
				}
			}
		}
	}
	fp := &freshProfiles{horizon: horizon, n: n, cum: make([]float64, n*(h+1)*n)}
	for i := 0; i < n; i++ {
		for t := int64(0); t < horizon; t++ {
			prev := fp.at(i, t)
			next := fp.at(i, t+1)
			o := at(i, t)
			for s := range next {
				next[s] = prev[s] + o[s]
			}
		}
	}
	return fp.cum
}

// refForecast is the pre-rewrite Forecast: same conditioning and
// convolution, reading the slice-of-slices profiles.
func refForecast(m *refModel, cur market.Money, age, horizon int64) *Forecast {
	if age < 1 {
		age = 1
	}
	if age > m.maxSojourn {
		age = m.maxSojourn
	}
	n := len(m.prices)
	soj := make([]*refSojournData, n)
	for i := range soj {
		soj[i] = refSojourn(m, i)
	}
	i := m.nearestState(cur)
	sd := soj[i]
	cum := refFreshCum(m, horizon, soj)

	tot := make(stateDist, n)
	condSurv := sd.survivalAt(age)
	if condSurv <= 0 {
		for j, g := range sd.marginal {
			if g == 0 {
				continue
			}
			c := cum[j][horizon]
			for s := range tot {
				tot[s] += g * c[s]
			}
		}
		if m.out[i] == 0 {
			tot[i] += float64(horizon)
		}
	} else {
		for t := int64(0); t < horizon; t++ {
			tot[i] += sd.survivalAt(age+t+1) / condSurv
		}
		for x, k := range sd.durations {
			if k < age {
				continue
			}
			d := k - age
			if d >= horizon {
				break
			}
			w := sd.pmf[x] / condSurv
			if w == 0 {
				continue
			}
			rem := horizon - d
			for j, g := range sd.next[x] {
				if g == 0 {
					continue
				}
				c := cum[j][rem]
				wg := w * g
				for s := range tot {
					tot[s] += wg * c[s]
				}
			}
		}
	}

	avg := make(stateDist, n)
	for s := range avg {
		avg[s] = tot[s] / float64(horizon)
	}
	return newForecast(m.prices, avg, horizon)
}

// refOutOfBidFraction is the pre-rewrite linear scan over price states.
func refOutOfBidFraction(f *Forecast, bid market.Money) float64 {
	out := 0.0
	for s, p := range f.prices {
		if p > bid {
			out += f.avgOcc[s]
		}
	}
	if out > 1 {
		out = 1
	}
	return out
}

// refFailureProbability composes refOutOfBidFraction with fp0.
func refFailureProbability(f *Forecast, bid market.Money, fp0 float64) float64 {
	fp := 1 - (1-fp0)*(1-refOutOfBidFraction(f, bid))
	if fp < 0 {
		return 0
	}
	if fp > 1 {
		return 1
	}
	return fp
}

// refMinimalBid is the pre-rewrite linear level scan.
func refMinimalBid(f *Forecast, target, fp0 float64, cap market.Money) (market.Money, bool) {
	for _, p := range f.prices {
		if p > cap {
			break
		}
		if refFailureProbability(f, p, fp0) <= target {
			return p, true
		}
	}
	if refFailureProbability(f, cap, fp0) <= target {
		return cap, true
	}
	return 0, false
}
