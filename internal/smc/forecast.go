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
// Decide-time fast path: the sojourn tables are built at freeze, and
// the lazily built fresh profiles are published through an atomic
// pointer with copy-on-write builds, so cache hits — the overwhelming
// majority of reads once a model is warm, and *every* read when a
// shared modelcache serves parallel sweep cells — take no lock at all.
// The model mutex only serializes the builds themselves. The
// fresh-profile DP runs over one flat []float64 with stride indexing,
// and compiles each state's departures once per build into a flat hop
// list, so a minute's step has no zero to skip and no table to search.
// One kernel call per row (addRow) takes a state's live hops over its
// n cells held in registers and folds the finished row into the
// cumulative table; rows wider than eight are cut into even chunks. A
// forecast's departure sum goes through the same kernel.
//
// On amd64 the kernel is SSE2 assembly (fold_amd64.s): each hop's
// weight is broadcast once and two cells share each packed multiply
// and add. On storage-scale models (four to six states, 50–60 live hops
// a row) that builds the profiles 1.5 to 2 times as fast as scalar Go
// (BenchmarkForecastFreshBuild), which per-hop loads, bounds checks and
// a multiply-add per cell held back; the assembly waits on each cell's
// add latency instead. Other architectures and the purego tag run a
// plain Go loop (fold_generic.go). The lanes are exact: a packed MULPD
// or ADDPD rounds each lane as MULSD or ADDSD would, nothing is fused,
// and Go keeps the default rounding mode. The hops are in the order the
// original per-minute slices added their terms — sojourn ascending,
// then destination ascending — and every cell adds them to its survival
// term in that order, so every forecast stays bit-identical on every
// build (TestFreshMatchesReference, TestAddRowMatchesLoop).

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

// offset is where the cumulative occupancy vector u minutes after
// entering state i begins in the flat table.
func (fp *freshProfiles) offset(i int, u int64) int {
	return (i*(int(fp.horizon)+1) + int(u)) * fp.n
}

// sojournData is one state's sojourn tables, built at freeze. The
// destinations of durations[x] are the range next[first[x]:first[x+1]]
// of one flat list: only the destinations with a non-zero probability,
// ascending — a kernel row names one or two of the n states, so dense
// rows would be mostly zeros that every reader skips anyway.
type sojournData struct {
	durations []int64   // sorted distinct observed sojourns
	pmf       []float64 // P(K = durations[x])
	survival  []float64 // P(K > durations[x]), clamped at 0 step by step
	first     []int     // len(durations)+1 offsets into next
	next      []dest    // P(destination | K = durations[x]), non-zeros only
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

// survivalCursor reads a state's P(K >= a) at non-decreasing a. The
// survival is a step function: 1 through the first duration, then
// survival[x] up to durations[x+1] — the last value, at maxDur+1, is
// what rounding left of the mass — and 0 beyond, where every observed
// run has ended. An absorbing state, with no duration, survives forever.
type survivalCursor struct {
	sd *sojournData
	x  int // how many durations lie below the last a read
}

func (c *survivalCursor) at(a int64) float64 {
	for c.x < len(c.sd.durations) && c.sd.durations[c.x] < a {
		c.x++
	}
	switch {
	case c.x == 0:
		return 1
	case a > c.sd.maxDur+1:
		return 0
	}
	return c.sd.survival[c.x-1]
}

// hop is one term of a state's fresh-entry recursion: leaving after d
// minutes for some destination adds wg times the destination's own
// fresh occupancy d minutes earlier. A forecast's departure terms are
// hops too, with src an offset into the cumulative table and d unused.
type hop struct {
	d   int     // sojourn before the jump, minutes
	src int     // offset in occ of the destination's minute-(t-d) row, less t rows
	wg  float64 // P(K = d) · P(destination | K = d)
}

// freshScratch is the working memory of one fresh-profile build: the
// per-minute occupancy table, the compiled hop lists and each state's
// run of live hops. Only the cumulative table outlives a build, so the
// scratch is pooled across builds and models. A build writes every cell
// of the table before it reads it, and clears the runs, so what an
// earlier build left there does not matter.
type freshScratch struct {
	occ  []float64
	hops []hop
	live []hopRun
}

var freshScratchPool = sync.Pool{New: func() any { return new(freshScratch) }}

// hopRun counts a list of hops and bounds their sources: the kernel
// reads tab[src+at:][:len(row)] for every hop, so the least and the
// greatest src check every offset a row reads with two comparisons.
type hopRun struct {
	n, lo, hi int
}

func (r *hopRun) add(src int) {
	if r.n == 0 {
		r.lo, r.hi = src, src
	}
	r.lo, r.hi, r.n = min(r.lo, src), max(r.hi, src), r.n+1
}

// addRow adds every hop's term to the cells of a row — wg times the
// same cells of tab at the hop's src+at, each cell summing its terms in
// hop order — and, when next is non-nil, folds the finished row into
// the cumulative profile: next = prev + row. lo and hi are the least
// and greatest src among the hops; a read outside tab panics here,
// before the kernel runs. The kernel takes one to eight cells at a
// time, all of them in registers; a wider row is cut into as few such
// chunks as cover it, sized evenly (nine cells are 5 + 4, never 8 + 1:
// a pass costs the same whether it carries one cell or four).
func addRow(row, prev, next []float64, hops []hop, lo, hi int, tab []float64, at int) {
	if len(hops) > 0 && (lo+at < 0 || hi+at+len(row) > len(tab)) {
		panic(fmt.Sprintf("smc: hop sources [%d, %d] + %d read outside a table of %d cells", lo, hi+len(row)-1, at, len(tab)))
	}
	for len(row) > 0 {
		w := len(row)
		if w > 8 {
			chunks := (w + 7) / 8
			w = (w + chunks - 1) / chunks
		}
		var p, q []float64
		if next != nil {
			p, q, prev, next = prev[:w], next[:w], prev[w:], next[w:]
		}
		addHops(row[:w], p, q, hops, tab, at)
		row, at = row[w:], at+w
	}
}

// hopBuf gathers a forecast's departure terms on the stack and hands
// them to the kernel a bufferful at a time: the row stays in memory
// between flushes, so every cell still adds its terms in order.
type hopBuf struct {
	row, tab []float64 // each term adds wg times a row of tab to row
	hops     [32]hop
	n        int
}

// push queues the term wg times tab[src:][:len(row)].
func (b *hopBuf) push(src int, wg float64) {
	if b.n == len(b.hops) {
		b.flush()
	}
	b.hops[b.n] = hop{src: src, wg: wg}
	b.n++
}

// flush adds the queued terms to row.
func (b *hopBuf) flush() {
	var run hopRun
	for _, hp := range b.hops[:b.n] {
		run.add(hp.src)
	}
	addRow(b.row, nil, nil, b.hops[:b.n], run.lo, run.hi, b.tab, 0)
	b.n = 0
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
	first := make([]int, n+1)
	hops := sc.hops[:0]
	surv := make([]survivalCursor, n) // read at t+1 in the pass below
	for i := range m.soj {
		sd := &m.soj[i]
		surv[i].sd = sd
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
	sc.live = append(sc.live[:0], make([]hopRun, n)...) // state i's hops with d <= t
	live := sc.live
	for t := 0; t < h; t++ {
		for i := range surv {
			row := occ[(i*h+t)*n:][:n]
			clear(row)
			// Still in the entered state through minute t iff K >= t+1.
			row[i] = surv[i].at(int64(t) + 1)
			// Departures at minute d <= t hand off to fresh profiles.
			hs, lr := hops[first[i]:first[i+1]], &live[i]
			for lr.n < len(hs) && hs[lr.n].d <= t {
				lr.add(hs[lr.n].src)
			}
			cum := fp.cum[(i*(h+1)+t)*n:][:2*n]
			addRow(row, cum[:n], cum[n:], hs[:lr.n], lr.lo, lr.hi, occ, t*n)
		}
	}
	return fp
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
	sd := &m.soj[i]
	fp := m.fresh(horizon)

	tot := make(stateDist, n)
	deps := hopBuf{row: tot, tab: fp.cum} // departure terms
	surv := survivalCursor{sd: sd}
	condSurv := surv.at(age)
	if condSurv <= 0 {
		// The run has outlived every observed sojourn: assume departure
		// now with the marginal destination distribution.
		for j, g := range sd.marginal {
			if g != 0 {
				deps.push(fp.offset(j, horizon), g)
			}
		}
	} else {
		// Stay term: still in state i during interval minute t iff
		// K >= age + t + 1, which is 0 past the longest observed sojourn
		// (adding zero moves no bit, so the sum stops there) and holds from
		// one duration to the next, so each step is divided once.
		stay := horizon
		if !sd.absorbing {
			stay = min(horizon, sd.maxDur+1-age)
		}
		var held float64 // tot[i] is 0 until here
		for a, end := age+1, age+stay; a <= end; {
			q, hi := surv.at(a)/condSurv, end
			if surv.x < len(sd.durations) {
				hi = min(hi, sd.durations[surv.x])
			}
			for ; a <= hi; a++ {
				held += q
			}
		}
		tot[i] = held
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
				deps.push(fp.offset(e.to, rem), w*e.g)
			}
		}
	}
	deps.flush()

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
