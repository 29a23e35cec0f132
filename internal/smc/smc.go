// Package smc implements the paper's spot-price model and spot-instance
// failure model (§3.1, §4.2): a discrete semi-Markov chain over
// (price, sojourn-time) states with 1-minute time units, estimated from
// price history by the empirical estimator of Equation 13,
//
//	q̂(i,j,k) = N^k_{i,j} / N_i,
//
// and used to estimate the out-of-bid failure probability of a spot
// instance under a bid over a bidding interval (the discretization of
// Equation 5, computed by forward-propagating the chain and averaging
// per-minute out-of-bid probability). A one-minute interval is the
// single-time-unit estimate of Equation 14, conditioned on the current
// run's age.
//
// The estimator counts Equation 13 with neither a hash nor a sort: each
// price gets a level id once, each level a table indexed by sojourn k
// whose slot chains that (i, k)'s destinations by price. Walking levels
// by price, k ascending, each chain in order lists the non-zero counts
// in kernel order, (from, k, to), and they are the integers any store
// would hold, so every model is bit for bit a from-scratch one
// (TestModelMatchesMapReference, FuzzWindowedEstimator).
package smc

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/market"
	"repro/internal/trace"
)

// DefaultMaxSojourn caps the discretized sojourn state space T at one
// day; longer runs are clamped, which only makes failure estimates more
// conservative.
const DefaultMaxSojourn int64 = 24 * 60

// Estimator accumulates observed price transitions from traces. Use one
// estimator per (zone, instance type) pair.
type Estimator struct {
	maxSojourn int64
	// levels are the prices seen, by id in order of first sight; sorted
	// holds them ascending, byPrice the id of each.
	levels  []level
	sorted  []market.Money
	byPrice []int32
	// counters holds the N^k_{i,j}, chained per (i, k): counter x is
	// counters[x-1], 0 ends a chain, and emptied ones chain from free.
	counters []counter
	free     int32
	live     int
	// observations counts complete transitions seen.
	observations int64
}

// level is one price and the counters that leave it: bySojourn[k-1]
// heads the chain of N^k_{i,j}, ascending by destination price, grown
// to the longest sojourn seen. out and in count the transitions that
// leave and enter the level; a level neither names is in no model.
type level struct {
	price     market.Money
	bySojourn []int32
	out, in   int64
}

// counter is one N^k_{i,j}: its destination level, its count and the
// next counter of the same (i, k).
type counter struct {
	to, next int32
	count    int64
}

// NewEstimator creates an estimator with the given sojourn cap in
// minutes; 0 selects DefaultMaxSojourn.
func NewEstimator(maxSojourn int64) *Estimator {
	if maxSojourn <= 0 {
		maxSojourn = DefaultMaxSojourn
	}
	return &Estimator{maxSojourn: maxSojourn}
}

// level returns the id of price p, giving it the next one on first
// sight.
func (e *Estimator) level(p market.Money) int32 {
	x, ok := slices.BinarySearch(e.sorted, p)
	if ok {
		return e.byPrice[x]
	}
	id := int32(len(e.levels))
	e.levels = append(e.levels, level{price: p})
	e.sorted = slices.Insert(e.sorted, x, p)
	e.byPrice = slices.Insert(e.byPrice, x, id)
	return id
}

// clampSojourn maps an observed run length onto the sojourn state space
// [1, maxSojourn].
func clampSojourn(k, maxSojourn int64) int64 {
	return min(max(k, 1), maxSojourn)
}

// Observe folds a trace's complete price runs into the counts, merging
// adjacent points of equal price exactly like Trace.Sojourns; the first
// run starts at Start. The final (truncated) run carries no departure
// information and is skipped.
func (e *Estimator) Observe(tr *trace.Trace) {
	if len(tr.Points) == 0 {
		return
	}
	run := tr.Points[0]
	run.Minute = max(run.Minute, tr.Start)
	from := e.level(run.Price)
	for _, p := range tr.Points[1:] {
		if p.Price == run.Price {
			continue
		}
		to := e.level(p.Price)
		e.add(from, to, clampSojourn(p.Minute-run.Minute, e.maxSojourn))
		run, from = p, to
	}
}

// add counts one observed transition from level `from` to level `to`
// after a (pre-clamped) sojourn of k minutes.
func (e *Estimator) add(from, to int32, k int64) {
	src := &e.levels[from]
	if n := int64(len(src.bySojourn)); n < k {
		src.bySojourn = append(src.bySojourn, make([]int32, k-n)...)
	}
	src.out++
	e.levels[to].in++
	e.observations++
	if e.free == 0 && len(e.counters) == cap(e.counters) {
		e.counters = slices.Grow(e.counters, 1) // so link stays valid
	}
	// link ends at the counter, or where it would keep the chain
	// ascending by destination price.
	link := &src.bySojourn[k-1]
	for x := *link; x != 0; x = *link {
		c := &e.counters[x-1]
		if c.to == to {
			c.count++
			return
		}
		if e.levels[c.to].price > e.levels[to].price {
			break
		}
		link = &c.next
	}
	x := e.free
	if x != 0 {
		e.free = e.counters[x-1].next
	} else {
		e.counters = append(e.counters, counter{})
		x = int32(len(e.counters))
	}
	e.counters[x-1] = counter{to: to, next: *link, count: 1}
	*link = x
	e.live++
}

// remove undoes one add with the same arguments — the eviction half of
// the sliding-window path. A counter that empties leaves its chain for
// the free one at once, and a level no counter names leaves the model,
// so the learned price state space shrinks exactly as a from-scratch
// estimator over the narrower window would see it.
func (e *Estimator) remove(from, to int32, k int64) {
	src := &e.levels[from]
	link := &src.bySojourn[k-1]
	for *link != 0 && e.counters[*link-1].to != to {
		link = &e.counters[*link-1].next
	}
	x := *link
	if x == 0 {
		panic(fmt.Sprintf("smc: removing unobserved transition %v -> %v after %d min", src.price, e.levels[to].price, k))
	}
	if c := &e.counters[x-1]; c.count == 1 {
		*link, c.next, e.free = c.next, e.free, x
		e.live--
	} else {
		c.count--
	}
	src.out--
	e.levels[to].in--
	e.observations--
}

// Model freezes the counts into a queryable semi-Markov model. It
// errors when no transition has been observed. The levels some counter
// names become the states, in price order; walking them in that order,
// each by sojourn and each chain by destination price, visits the
// counts in kernel order, (from, k, to), and builds every state's
// sojourn tables: nothing is sorted or copied out first.
func (e *Estimator) Model() (*Model, error) {
	if e.observations == 0 {
		return nil, fmt.Errorf("smc: no transitions observed")
	}
	const maxDurations = 96 // per state; a state with more merges them into buckets
	state := make([]int, len(e.levels))
	m := &Model{maxSojourn: e.maxSojourn}
	m.prices, m.out = make([]market.Money, 0, len(e.levels)), make([]int64, 0, len(e.levels))
	for _, id := range e.byPrice {
		if lv := &e.levels[id]; lv.out > 0 || lv.in > 0 {
			state[id] = len(m.prices)
			m.prices, m.out = append(m.prices, lv.price), append(m.out, lv.out)
		}
	}
	n := len(m.prices)
	m.soj = make([]sojournData, n)

	// The first walk sizes the tables: each kind is one exact allocation
	// the states' tables are windows of. A state's rows are its non-empty
	// sojourn slots, group adjacent ones make a duration, and a bucket's
	// destinations are the distinct states its chains name.
	rows := make([]int, len(e.levels)) // by level id
	named := make([]int, n)            // the last bucket that named each state, counting from 1
	var ndur, ndest, bucket int
	for _, id := range e.byPrice {
		lv := &e.levels[id]
		if lv.out == 0 {
			continue
		}
		for _, x := range lv.bySojourn {
			if x != 0 {
				rows[id]++
			}
		}
		group := (rows[id] + maxDurations - 1) / maxDurations
		ndur += (rows[id] + group - 1) / group
		r := 0
		for _, x := range lv.bySojourn {
			if x == 0 {
				continue
			}
			if r%group == 0 {
				bucket++
			}
			r++
			for ; x != 0; x = e.counters[x-1].next {
				if to := state[e.counters[x-1].to]; named[to] != bucket {
					named[to] = bucket
					ndest++
				}
			}
		}
	}
	durations := make([]int64, ndur)
	probs := make([]float64, 2*ndur) // each state's pmf, then its survival
	first := make([]int, 0, ndur+n)
	next := make([]dest, 0, ndest)
	marginal := make([]float64, n*n)
	dist := make(stateDist, n) // a merged bucket's destinations, cleared as they are read out

	// The second walk fills them, summing each row's total before its
	// cells are read. Merged buckets get probability-weighted durations
	// and destinations, which keeps the fresh-profile DP cheap and only
	// coarsens *when* within the interval a transition lands, never
	// whether.
	for _, id := range e.byPrice {
		lv := &e.levels[id]
		if lv.out == 0 && lv.in == 0 {
			continue
		}
		i := state[id]
		sd := &m.soj[i]
		sd.marginal = marginal[i*n : (i+1)*n : (i+1)*n]
		if lv.out == 0 {
			sd.absorbing = true // observed only as a destination
			continue
		}
		group := (rows[id] + maxDurations - 1) / maxDurations
		groups := (rows[id] + group - 1) / group
		sd.durations, durations = durations[:groups:groups], durations[groups:]
		sd.pmf, sd.survival, probs = probs[:groups:groups], probs[groups:2*groups:2*groups], probs[2*groups:]
		base := len(first)
		first = append(first, 0)
		at := len(next)
		out := float64(lv.out)
		var pSum, dSum float64
		r, x, d, tail := 0, 0, int64(0), 1.0
		for k, head := range lv.bySojourn {
			if head == 0 {
				continue
			}
			if r%group == 0 {
				pSum, dSum, d = 0, 0, int64(k)+1
			}
			var total int64
			for y := head; y != 0; y = e.counters[y-1].next {
				total += e.counters[y-1].count
			}
			p := float64(total) / out
			pSum += p
			dSum += float64(k+1) * p
			for y := head; y != 0; y = e.counters[y-1].next {
				c := &e.counters[y-1]
				to := state[c.to]
				g := float64(c.count) / float64(total)
				sd.marginal[to] += float64(c.count) / out
				if group == 1 {
					next = append(next, dest{to: to, g: g})
				} else {
					dist[to] += g * p
				}
			}
			if r++; r%group != 0 && r != rows[id] {
				continue
			}
			if group > 1 {
				for s, v := range dist {
					if g := v / pSum; g != 0 {
						next = append(next, dest{to: s, g: g})
					}
					dist[s] = 0
				}
				d = max(int64(dSum/pSum+0.5), 1)
				if x > 0 && sd.durations[x-1] >= d {
					d = sd.durations[x-1] + 1
				}
			}
			if tail -= pSum; tail < 0 {
				tail = 0
			}
			sd.durations[x], sd.pmf[x], sd.survival[x] = d, pSum, tail
			first = append(first, len(next)-at)
			x++
		}
		sd.first = first[base:len(first):len(first)]
		sd.next = next[at:len(next):len(next)]
		sd.maxDur = sd.durations[groups-1]
	}
	return m, nil
}

// Model is a frozen semi-Markov chain estimated from price history.
// The sojourn tables are built at freeze and immutable; the fresh
// profiles are built lazily, published copy-on-write through an atomic
// pointer, and immutable once published, so a Model is safe for
// concurrent use — many goroutines may Forecast/Stationary the same
// instance, which is what lets the modelcache provider train once and
// serve every parallel sweep cell. A profile hit is lock-free (a single
// atomic load); the mutex only serializes the builds themselves.
type Model struct {
	maxSojourn int64
	prices     []market.Money
	out        []int64       // N_i
	soj        []sojournData // per state

	mu       sync.Mutex                    // serializes profile builds
	profiles atomic.Pointer[freshProfiles] // published fresh-entry occupancy cache

	stationaryOnce sync.Once // Stationary computes once per model
	stationary     *Forecast
	stationaryErr  error
}

// Support summarizes how much training data backs each state — the
// "estimation improves with more spot prices data" observation of the
// paper made quantitative. States with few observed departures produce
// coarse kernels and conservative bids.
type Support struct {
	States             int
	TotalTransitions   int64
	MinStateDepartures int64
	// SparseStates counts states with fewer than SparseDepartures
	// departures.
	SparseStates int
}

// SparseDepartures is the fewest observed departures a state needs not
// to count as sparse.
const SparseDepartures = 30

// SupportSummary reports per-state training support.
func (m *Model) SupportSummary() Support {
	s := Support{States: len(m.prices), MinStateDepartures: -1}
	for _, out := range m.out {
		s.TotalTransitions += out
		if s.MinStateDepartures < 0 || out < s.MinStateDepartures {
			s.MinStateDepartures = out
		}
		if out < SparseDepartures {
			s.SparseStates++
		}
	}
	if s.MinStateDepartures < 0 {
		s.MinStateDepartures = 0
	}
	return s
}

// nearestState maps an arbitrary price onto the learned state space:
// exact match if known, otherwise the nearest learned price (ties go
// upward, the conservative direction for failure estimation).
func (m *Model) nearestState(p market.Money) int {
	i, ok := slices.BinarySearch(m.prices, p)
	if ok || i == 0 {
		return i
	}
	if i == len(m.prices) {
		return len(m.prices) - 1
	}
	if p-m.prices[i-1] < m.prices[i]-p {
		return i - 1
	}
	return i
}
