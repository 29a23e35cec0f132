package smc

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/market"
)

// The interval failure estimator (discretized Equation 5) forward-
// propagates the learned semi-Markov chain: the failure probability of a
// spot instance over a bidding interval is the average, over the
// interval's minutes, of the probability that the spot price exceeds the
// bid in that minute, composed with the on-demand failure probability.
//
// Propagation is exact dynamic programming, not Monte Carlo. For each
// state i, the fresh-profile DP computes the occupancy distribution over
// states for every minute after *entering* i; a forecast from the
// current (price, age) pair then conditions the residual sojourn of the
// current run and convolves departures with the precomputed fresh
// profiles.
//
// Decide-time fast path: the lazily built tables (per-state sojourn
// data, fresh profiles) are published through atomic pointers with
// copy-on-write builds, so cache hits — the overwhelming majority of
// reads once a model is warm, and *every* read when a shared modelcache
// serves parallel sweep cells — take no lock at all. The model mutex
// only serializes the builds themselves. The fresh-profile DP runs over
// one flat []float64 with stride indexing, and compiles each state's
// departures once per build into a flat hop list, so a minute's step
// has no zero to skip and no table to search: one pass over a state's
// live hops finishes its whole row of n cells out of registers (rows
// wider than eight are cut into chunks of four to eight). The hops are
// in the order the original per-minute slices added their terms —
// sojourn ascending, then destination ascending — and every cell adds
// them to its survival term in that order, so the sums, and with them
// every forecast, stay bit-identical (TestFreshMatchesReference). What
// bounds the kernel is scalar floating-point issue — one multiply-add
// per cell per hop, no padding lanes — and only SIMD assembly would go
// below that, which this package does not want.

// stateDist is an occupancy vector over the model's price states.
type stateDist []float64

// freshProfiles caches, for a given horizon, the cumulative occupancy
// C[i][u][s]: expected number of minutes spent in state s during the
// first u minutes after entering state i. The table is one flat backing
// array indexed (i*(horizon+1)+u)*n + s; a published profile set is
// immutable (a longer horizon builds and publishes a replacement).
type freshProfiles struct {
	horizon int64
	n       int
	cum     []float64
}

// at returns the cumulative occupancy vector u minutes after entering
// state i, as a read-only window into the flat table.
func (fp *freshProfiles) at(i int, u int64) []float64 {
	off := (i*(int(fp.horizon)+1) + int(u)) * fp.n
	return fp.cum[off : off+fp.n : off+fp.n]
}

// sojournData is one state's sojourn tables, derived lazily from the
// kernel. The destinations of durations[x] are the range
// next[first[x]:first[x+1]] of one flat list: only the destinations with
// a non-zero probability, ascending — a kernel row names one or two of
// the n states, so dense rows would be mostly zeros that every reader
// skips anyway.
type sojournData struct {
	durations []int64   // sorted distinct observed sojourns
	pmf       []float64 // P(K = durations[x])
	first     []int     // len(durations)+1 offsets into next
	next      []dest    // P(destination | K = durations[x]), non-zeros only
	survival  []float64 // survival[a] = P(K >= a), a in [0, maxDur+1]
	marginal  stateDist // destination distribution ignoring K
	maxDur    int64
	absorbing bool // state observed only as a destination: never departs
}

// dest is one non-zero entry of a destination distribution.
type dest struct {
	to int
	g  float64
}

// dests returns the destination distribution given K = durations[x].
func (sd *sojournData) dests(x int) []dest { return sd.next[sd.first[x]:sd.first[x+1]] }

// sojourn returns (building if needed) the per-state sojourn tables.
// The hit path is a single atomic load; builds happen under the model's
// mutex and publish an immutable table copy-on-write.
func (m *Model) sojourn(i int) *sojournData {
	if sd := m.soj[i].Load(); sd != nil {
		return sd
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sojournLocked(i)
}

func (m *Model) sojournLocked(i int) *sojournData {
	if sd := m.soj[i].Load(); sd != nil {
		return sd
	}
	n := len(m.prices)
	sd := &sojournData{marginal: make(stateDist, n)}
	if m.out[i] == 0 {
		// Absorbing state: observed only as a destination.
		sd.absorbing = true
		m.soj[i].Store(sd)
		return sd
	}
	// The kernel rows are already ascending by sojourn and, within one,
	// by destination, so the tables fill in one walk. Cap the duration
	// support so the fresh-profile DP stays cheap: a long tail of distinct
	// sojourns merges, group adjacent rows at a time, into buckets with
	// probability-weighted representative durations and destinations. This
	// only coarsens *when* within the interval a transition lands, never
	// whether.
	const maxDurations = 96
	rows := m.kernel[i]
	group := (len(rows) + maxDurations - 1) / maxDurations
	groups := (len(rows) + group - 1) / group
	ncells := 0
	for _, r := range rows {
		ncells += len(r.cells)
	}
	out := float64(m.out[i])
	sd.durations = make([]int64, groups)
	sd.pmf = make([]float64, groups)
	sd.first = make([]int, groups+1)
	sd.next = make([]dest, 0, min(ncells, groups*n))
	var dist stateDist // a merged bucket's destinations, cleared as they are read out
	if group > 1 {
		dist = make(stateDist, n)
	}
	for x := range sd.durations {
		bucket := rows[x*group : min((x+1)*group, len(rows))]
		var pSum, dSum float64
		for _, r := range bucket {
			p := float64(r.total) / out
			pSum += p
			dSum += float64(r.k) * p
			for _, c := range r.cells {
				g := float64(c.count) / float64(r.total)
				sd.marginal[c.to] += float64(c.count) / out
				if group == 1 {
					sd.next = append(sd.next, dest{to: c.to, g: g})
				} else {
					dist[c.to] += g * p
				}
			}
		}
		d := bucket[0].k
		if group > 1 {
			for s, v := range dist {
				if g := v / pSum; g != 0 {
					sd.next = append(sd.next, dest{to: s, g: g})
				}
				dist[s] = 0
			}
			d = max(int64(dSum/pSum+0.5), 1)
			if x > 0 && sd.durations[x-1] >= d {
				d = sd.durations[x-1] + 1
			}
		}
		sd.durations[x], sd.pmf[x], sd.first[x+1] = d, pSum, len(sd.next)
	}
	sd.maxDur = sd.durations[groups-1]
	// survival[a] = P(K >= a): survival[0] = survival[1] = 1 since K >= 1.
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
	m.soj[i].Store(sd)
	return sd
}

// hop is one term of a state's fresh-entry recursion: leaving after d
// minutes for some destination adds wg times the destination's own
// fresh occupancy d minutes earlier.
type hop struct {
	d   int     // sojourn before the jump, minutes
	src int     // offset in occ of the destination's minute-(t-d) row, less t rows
	wg  float64 // P(K = d) · P(destination | K = d)
}

// freshScratch is the working memory of one fresh-profile build: the
// per-minute occupancy table and the compiled hop lists. Only the
// cumulative table outlives a build, so the scratch is pooled across
// builds and models. A build writes every cell of the table before it
// reads it, so what an earlier build left there does not matter.
type freshScratch struct {
	occ  []float64
	hops []hop
}

var freshScratchPool = sync.Pool{New: func() any { return new(freshScratch) }}

// addRow adds every hop's term to the cells of a minute-t row: wg
// times the same cells of the hop's source row, at being the row's
// offset within the minute-t row of state 0. Each cell sums its terms
// in hop order. A row of four to eight cells is one pass over the hops
// with all of it in registers; a wider one is cut into as few such
// chunks as cover it, sized evenly (nine cells are 5 + 4, never 8 + 1:
// a pass costs the same whether it carries one cell or four).
func addRow(row []float64, hops []hop, occ []float64, at int) {
	if len(row) < 4 {
		for _, hp := range hops {
			s := occ[hp.src+at:][:len(row)]
			for c := range row {
				row[c] += hp.wg * s[c]
			}
		}
		return
	}
	for chunks := (len(row) + 7) / 8; chunks > 0; chunks-- {
		w := (len(row) + chunks - 1) / chunks
		switch w {
		case 4:
			addHops(row, hops, occ, at)
		case 5:
			addHops5(row, hops, occ, at)
		case 6:
			addHops6(row, hops, occ, at)
		case 7:
			addHops7(row, hops, occ, at)
		case 8:
			addHops8(row, hops, occ, at)
		}
		row, at = row[w:], at+w
	}
}

// addHops is the four-cell kernel: v[0:4] += wg · occ[src+at:][0:4]
// over the hops, the cells held in registers throughout. addHops5 to
// addHops8 are the same kernel over five to eight cells.
func addHops(v []float64, hops []hop, occ []float64, at int) {
	v = v[:4]
	v0, v1, v2, v3 := v[0], v[1], v[2], v[3]
	for _, hp := range hops {
		s := occ[hp.src+at:][:4]
		v0 += hp.wg * s[0]
		v1 += hp.wg * s[1]
		v2 += hp.wg * s[2]
		v3 += hp.wg * s[3]
	}
	v[0], v[1], v[2], v[3] = v0, v1, v2, v3
}

func addHops5(v []float64, hops []hop, occ []float64, at int) {
	v = v[:5]
	v0, v1, v2, v3, v4 := v[0], v[1], v[2], v[3], v[4]
	for _, hp := range hops {
		s := occ[hp.src+at:][:5]
		v0 += hp.wg * s[0]
		v1 += hp.wg * s[1]
		v2 += hp.wg * s[2]
		v3 += hp.wg * s[3]
		v4 += hp.wg * s[4]
	}
	v[0], v[1], v[2], v[3], v[4] = v0, v1, v2, v3, v4
}

func addHops6(v []float64, hops []hop, occ []float64, at int) {
	v = v[:6]
	v0, v1, v2, v3, v4, v5 := v[0], v[1], v[2], v[3], v[4], v[5]
	for _, hp := range hops {
		s := occ[hp.src+at:][:6]
		v0 += hp.wg * s[0]
		v1 += hp.wg * s[1]
		v2 += hp.wg * s[2]
		v3 += hp.wg * s[3]
		v4 += hp.wg * s[4]
		v5 += hp.wg * s[5]
	}
	v[0], v[1], v[2], v[3], v[4], v[5] = v0, v1, v2, v3, v4, v5
}

func addHops7(v []float64, hops []hop, occ []float64, at int) {
	v = v[:7]
	v0, v1, v2, v3, v4, v5, v6 := v[0], v[1], v[2], v[3], v[4], v[5], v[6]
	for _, hp := range hops {
		s := occ[hp.src+at:][:7]
		v0 += hp.wg * s[0]
		v1 += hp.wg * s[1]
		v2 += hp.wg * s[2]
		v3 += hp.wg * s[3]
		v4 += hp.wg * s[4]
		v5 += hp.wg * s[5]
		v6 += hp.wg * s[6]
	}
	v[0], v[1], v[2], v[3], v[4], v[5], v[6] = v0, v1, v2, v3, v4, v5, v6
}

func addHops8(v []float64, hops []hop, occ []float64, at int) {
	v = v[:8]
	v0, v1, v2, v3, v4, v5, v6, v7 := v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]
	for _, hp := range hops {
		s := occ[hp.src+at:][:8]
		v0 += hp.wg * s[0]
		v1 += hp.wg * s[1]
		v2 += hp.wg * s[2]
		v3 += hp.wg * s[3]
		v4 += hp.wg * s[4]
		v5 += hp.wg * s[5]
		v6 += hp.wg * s[6]
		v7 += hp.wg * s[7]
	}
	v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7] = v0, v1, v2, v3, v4, v5, v6, v7
}

// fresh returns (building if needed) fresh profiles covering at least
// the requested horizon. The hit path is a single atomic load; a longer
// horizon builds and publishes a replacement under the mutex, and
// readers holding the old pointer stay consistent.
func (m *Model) fresh(horizon int64) *freshProfiles {
	if fp := m.profiles.Load(); fp != nil && fp.horizon >= horizon {
		return fp
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if fp := m.profiles.Load(); fp != nil && fp.horizon >= horizon {
		return fp
	}
	sc := freshScratchPool.Get().(*freshScratch)
	fp := m.buildFresh(horizon, sc)
	freshScratchPool.Put(sc)
	m.profiles.Store(fp)
	return fp
}

// buildFresh runs the fresh-entry DP over horizon minutes in the given
// scratch, whatever it holds, and returns the cumulative profiles. The
// caller holds m.mu.
func (m *Model) buildFresh(horizon int64, sc *freshScratch) *freshProfiles {
	n := len(m.prices)
	h := int(horizon)

	// Compile each state's departures once into a flat hop list, in the
	// order the recursion adds them: sojourn ascending, then destination
	// ascending. A hop of d >= horizon can never fire. first[i] is where
	// state i's hops begin.
	sds := make([]*sojournData, n)
	first := make([]int, n+1)
	hops := sc.hops[:0]
	for i := range sds {
		sd := m.sojournLocked(i)
		sds[i] = sd
		for x, d := range sd.durations {
			if d >= horizon {
				break
			}
			for _, e := range sd.dests(x) {
				hops = append(hops, hop{d: int(d), src: (e.to*h - int(d)) * n, wg: sd.pmf[x] * e.g})
			}
		}
		first[i+1] = len(hops)
	}
	sc.hops = hops

	// occ[(i*h+t)*n + s] is the minute-t occupancy of state s after
	// entering state i. Minute t only reads minutes before t (every
	// sojourn is at least a minute) and writes its own rows whole, so
	// one pass in t fills the table, and each finished row is folded
	// into the cumulative profile.
	if cap(sc.occ) < n*h*n {
		sc.occ = make([]float64, n*h*n)
	}
	occ := sc.occ[:n*h*n]
	fp := &freshProfiles{horizon: horizon, n: n, cum: make([]float64, n*(h+1)*n)}
	live := make([]int, n) // how many of state i's hops have d <= t
	for t := 0; t < h; t++ {
		for i, sd := range sds {
			row := occ[(i*h+t)*n:][:n]
			clear(row)
			// Still in the entered state through minute t iff K >= t+1.
			row[i] = sd.survivalAt(int64(t) + 1)
			// Departures at minute d <= t hand off to fresh profiles.
			hs := hops[first[i]:first[i+1]]
			for live[i] < len(hs) && hs[live[i]].d <= t {
				live[i]++
			}
			addRow(row, hs[:live[i]], occ, t*n)
			prev := fp.cum[(i*(h+1)+t)*n:][:n]
			next := fp.cum[(i*(h+1)+t+1)*n:][:n]
			for s, v := range row {
				next[s] = prev[s] + v
			}
		}
	}
	return fp
}

// survivalAt returns P(K >= a), extending beyond the observed maximum
// as zero (every observed run ended by then). Absorbing states survive
// forever.
func (sd *sojournData) survivalAt(a int64) float64 {
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

// Forecast is the model's price distribution averaged over a bidding
// interval, from which failure probabilities under any bid follow.
type Forecast struct {
	// prices is shared with the owning model and must never be mutated.
	prices []market.Money
	avgOcc stateDist
	// suffix[x] is the total occupancy of price states x and above —
	// the out-of-bid fraction for any bid in [prices[x-1], prices[x]).
	// With it, FailureProbability is a table lookup and MinimalBid a
	// binary search over the monotone step function.
	suffix  []float64
	horizon int64
}

// newForecast freezes an occupancy vector into a queryable Forecast,
// precomputing the suffix-sum table. Each suffix entry re-sums its tail
// in ascending state order — the exact order the old linear scan used —
// so lookups are bit-identical to direct summation (float addition is
// not associative; a rolling right-to-left accumulation could drift in
// the last ulp). Quadratic in the number of price levels, which is tiny
// next to the propagation DP, and paid once per forecast.
func newForecast(prices []market.Money, avgOcc stateDist, horizon int64) *Forecast {
	n := len(prices)
	suffix := make([]float64, n+1)
	for x := n - 1; x >= 0; x-- {
		s := 0.0
		for t := x; t < n; t++ {
			s += avgOcc[t]
		}
		suffix[x] = s
	}
	return &Forecast{prices: prices, avgOcc: avgOcc, suffix: suffix, horizon: horizon}
}

// Forecast propagates the chain from the current price and run age
// (minutes the price has already held, >= 1) over the next horizon
// minutes and returns the average occupancy per price state. A price
// never seen in training maps to the nearest learned state.
func (m *Model) Forecast(cur market.Money, age, horizon int64) (*Forecast, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("smc: forecast horizon %d <= 0", horizon)
	}
	if age < 1 {
		age = 1
	}
	if age > m.maxSojourn {
		age = m.maxSojourn
	}
	n := len(m.prices)
	i := m.nearestState(cur)
	sd := m.sojourn(i)
	fp := m.fresh(horizon)

	tot := make(stateDist, n)
	condSurv := sd.survivalAt(age)
	if condSurv <= 0 {
		// The run has outlived every observed sojourn: assume departure
		// now with the marginal destination distribution.
		for j, g := range sd.marginal {
			if g == 0 {
				continue
			}
			c := fp.at(j, horizon)
			for s := range tot {
				tot[s] += g * c[s]
			}
		}
		if m.out[i] == 0 {
			// Truly absorbing: stay put.
			tot[i] += float64(horizon)
		}
	} else {
		// Stay term: still in state i during interval minute t iff
		// K >= age + t + 1. Past the longest observed sojourn that is
		// exactly zero, and adding zero moves no bit, so the sum stops
		// there.
		stay := horizon
		if !sd.absorbing {
			stay = min(horizon, sd.maxDur+1-age)
		}
		for t := int64(0); t < stay; t++ {
			tot[i] += sd.survivalAt(age+t+1) / condSurv
		}
		// Departure terms: K = age + d for d in [0, horizon).
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
			for _, e := range sd.dests(x) {
				c := fp.at(e.to, rem)
				wg := w * e.g
				for s := range tot {
					tot[s] += wg * c[s]
				}
			}
		}
	}

	for s := range tot {
		tot[s] = tot[s] / float64(horizon)
	}
	return newForecast(m.prices, tot, horizon), nil
}

// Levels returns the price levels at which the forecast's failure
// probability steps, ascending — the candidate bid set for optimizers.
// The returned slice is shared with the forecast and its model and must
// be treated as read-only.
func (f *Forecast) Levels() []market.Money {
	return f.prices
}

// levelAbove returns the index of the first price level strictly above
// the bid — the suffix-table cell holding the bid's out-of-bid mass.
func (f *Forecast) levelAbove(bid market.Money) int {
	return sort.Search(len(f.prices), func(i int) bool { return f.prices[i] > bid })
}

// outAt returns the out-of-bid fraction for the suffix cell x.
func (f *Forecast) outAt(x int) float64 {
	out := f.suffix[x]
	if out > 1 {
		out = 1
	}
	return out
}

// failureAt composes outAt with fp0 (Equation 4).
func (f *Forecast) failureAt(x int, fp0 float64) float64 {
	fp := 1 - (1-fp0)*(1-f.outAt(x))
	if fp < 0 {
		return 0
	}
	if fp > 1 {
		return 1
	}
	return fp
}

// FailureProbability composes the out-of-bid fraction with the
// on-demand failure probability fp0 (Equation 4):
// FP = 1 - (1 - fp0)(1 - Pr(price > bid)).
func (f *Forecast) FailureProbability(bid market.Money, fp0 float64) float64 {
	return f.failureAt(f.levelAbove(bid), fp0)
}

// MinimalBid returns the smallest bid not exceeding cap whose estimated
// failure probability is at most target. Because FailureProbability is
// a non-increasing step function changing only at learned price levels,
// the cheapest adequate level is found by binary search; the cap itself
// is the last resort. ok is false when no such bid exists.
func (f *Forecast) MinimalBid(target, fp0 float64, cap market.Money) (bid market.Money, ok bool) {
	// Levels are strictly ascending, so level x's out-of-bid mass sits
	// in suffix cell x+1, and feasibility is monotone in x.
	nc := f.levelAbove(cap) // count of levels <= cap
	x := sort.Search(nc, func(i int) bool { return f.failureAt(i+1, fp0) <= target })
	if x < nc {
		return f.prices[x], true
	}
	if f.failureAt(nc, fp0) <= target {
		return cap, true
	}
	return 0, false
}
