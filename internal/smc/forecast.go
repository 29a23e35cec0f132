package smc

import (
	"fmt"
	"math"
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
// The model mutex only serializes the builds themselves. The DP runs
// over one flat []float64 and compiles each state's departures once per
// build into a flat hop list, so a minute's step has no zero to skip
// and no table to search. One kernel call (addRows) finishes every
// state's row of a minute, each row's cells held in registers and
// folded into the cumulative table before they leave them; the Go loop
// per minute only grows each state's live hop prefix, reads its
// survival term and checks every offset the kernel will touch. A
// forecast's departure sum is the same kernel, one row.
//
// On amd64 with AVX (CPUID and XGETBV, read once) the kernel is
// assembly (fold_amd64.s): a row of up to eight cells is two 4-lane
// halves, and rows go two at a time, their hop lists in lockstep. Each
// cell's sum is a serial chain of adds, one per live hop (40–65 a row),
// so wider lanes leave one row waiting on add latency; a second,
// independent row fills the wait. Rows under four cells, CPUs without
// AVX, other architectures and the purego tag run a plain Go loop
// (fold_generic.go). Exact: a VMULPD or VADDPD lane rounds as MULSD or
// ADDSD would, nothing is fused, and every cell adds its hops to its
// survival term in the order the original per-minute slices did —
// sojourn ascending, then destination — so pairing rows changes which
// cells share a pass, never the order of one cell's sum
// (TestFreshMatchesReference, TestAddRowMatchesLoop, both kernels).

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

// holds returns the last age through which at keeps the value it
// returned for a, the last age read.
func (c *survivalCursor) holds(a int64) int64 {
	switch {
	case c.x < len(c.sd.durations):
		return c.sd.durations[c.x]
	case c.x > 0 && a <= c.sd.maxDur+1:
		return c.sd.maxDur + 1
	}
	return math.MaxInt64
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
// per-minute occupancy table, the compiled hop lists and the kernel's
// row jobs. Only the cumulative table outlives a build, so the scratch
// is pooled across builds and models. A build writes every cell of the
// table before it reads it, and sets every job, so what an earlier
// build left there does not matter.
type freshScratch struct {
	occ  []float64
	hops []hop
	jobs []rowJob
}

var freshScratchPool = sync.Pool{New: func() any { return new(freshScratch) }}

// hopRun bounds the sources of a set of hops: the kernel reads
// tab[src+at:][:w] for every hop, so the least and the greatest src
// check every offset a call reads with two comparisons.
type hopRun struct {
	n, lo, hi int
}

func (r *hopRun) add(src int) {
	if r.n == 0 {
		r.lo, r.hi = src, src
	}
	r.lo, r.hi, r.n = min(r.lo, src), max(r.hi, src), r.n+1
}

// rowJob is one row of a kernel call: w cells at rows[row+at:] that
// add the terms hops[first:][:n], each wg times the w cells of tab at
// its src+at. A call with a cumulative table folds: the row starts as
// surv in cell lane (-1: none) and 0 elsewhere, and the finished row
// is folded in, cum[cum+at+stride:] = cum[cum+at:] + row. A call
// without one adds the terms to what the row holds.
type rowJob struct {
	first, n, row, cum, lane int
	surv                     float64
}

// addRows fills every job's row, each cell summing its terms in hop
// order; run bounds the sources of every hop the jobs add. Every offset
// the kernel will touch is checked first: a bad one panics before it
// runs. Rows hold one to eight cells; callers cut wider ones by rowChunk.
func addRows(jobs []rowJob, hops []hop, run hopRun, tab, rows, cum []float64, w, at, stride int) {
	fold := len(cum) > 0
	lastRow, lastCum := len(rows)-w, len(cum)-w-stride // the last offsets a row and a prev may take
	bad := w < 1 || w > 8 || lastRow < 0 || fold && (stride < w || lastCum < 0) ||
		run.n > 0 && (run.lo+at < 0 || run.hi+at+w > len(tab))
	for _, j := range jobs {
		bad = bad || uint(j.first) > uint(len(hops)) || uint(j.n) > uint(len(hops)-j.first) || uint(j.row+at) > uint(lastRow) ||
			fold && (uint(j.lane+1) > uint(w) || uint(j.cum+at) > uint(lastCum))
	}
	if bad {
		panic(fmt.Sprintf("smc: a %d-cell row kernel at %d reads outside its tables (hop sources [%d, %d], %d jobs)", w, at, run.lo, run.hi, len(jobs)))
	}
	rowKernel(jobs, hops, tab, rows, cum, w, at, stride)
}

// rowChunk returns the width of the next chunk of a row with left
// cells to go: all of them up to eight, else as few chunks as cover
// them, sized evenly (nine cells are 5 + 4, never 8 + 1: a pass costs
// the same whether it carries one cell or four).
func rowChunk(left int) int {
	chunks := (left + 7) / 8
	return (left + chunks - 1) / chunks
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
	job := [1]rowJob{{n: b.n}}
	for at, w := 0, 0; at < len(b.row); at += w {
		w = rowChunk(len(b.row) - at)
		addRows(job[:], b.hops[:b.n], run, b.tab, b.row, nil, w, at, 0)
	}
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
	states := make([]struct {
		surv survivalCursor // read at t+1 in the pass below
		due  int64          // the next minute the term or the live hops change
	}, n)
	for i := range m.soj {
		sd := &m.soj[i]
		states[i].surv.sd = sd
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
	// one pass in t fills the table, one call per row chunk; each
	// finished row is folded into the cumulative profile. jobs[c*n+i] is
	// state i's row in chunk c; its live hops (d <= t) prefix its list.
	if cap(sc.occ) < n*h*n {
		sc.occ = make([]float64, n*h*n)
	}
	occ := sc.occ[:n*h*n]
	fp := &freshProfiles{horizon: horizon, n: n, cum: make([]float64, n*(h+1)*n)}
	sc.jobs = append(sc.jobs[:0], make([]rowJob, (n+7)/8*n)...)
	jobs := sc.jobs
	for c, at, w := 0, 0, 0; at < n; c, at = c+1, at+w {
		w = rowChunk(n - at)
		for i := 0; i < n; i++ {
			jobs[c*n+i] = rowJob{first: first[i], row: i * h * n, cum: i * (h + 1) * n, lane: -1}
			if i >= at && i < at+w {
				jobs[c*n+i].lane = i - at
			}
		}
	}
	var run hopRun // every live hop
	for t := 0; t < h; t++ {
		for i := range states {
			st, j := &states[i], &jobs[i]
			if int64(t) < st.due {
				continue
			}
			for j.first+j.n < first[i+1] && hops[j.first+j.n].d <= t {
				run.add(hops[j.first+j.n].src)
				j.n++
			}
			// Still in the entered state through minute t iff K >= t+1,
			// a term that holds through age due; no hop goes live sooner.
			j.surv = st.surv.at(int64(t) + 1)
			st.due = st.surv.holds(int64(t) + 1)
			for c := i + n; c < len(jobs); c += n {
				jobs[c].n, jobs[c].surv = j.n, j.surv
			}
		}
		for c, at, w := 0, 0, 0; at < n; c, at = c+1, at+w {
			w = rowChunk(n - at)
			addRows(jobs[c*n:][:n], hops, run, occ, occ, fp.cum, w, t*n+at, n)
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
			q, hi := surv.at(a)/condSurv, min(end, surv.holds(a))
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
