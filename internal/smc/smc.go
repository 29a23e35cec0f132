// Package smc implements the paper's spot-price model and spot-instance
// failure model (§3.1, §4.2): a discrete semi-Markov chain over
// (price, sojourn-time) states with 1-minute time units, estimated from
// price history by the empirical estimator of Equation 13,
//
//	q̂(i,j,k) = N^k_{i,j} / N_i,
//
// and used to estimate the out-of-bid failure probability of a spot
// instance under a bid, both for a single time unit (Equation 14) and
// over a bidding interval (the discretization of Equation 5, computed by
// forward-propagating the chain and averaging per-minute out-of-bid
// probability).
package smc

import (
	"cmp"
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

// countKey names one Equation 13 counter N^k_{i,j}: transitions from
// price from to price to after a sojourn of k minutes. Prices are keyed
// in micro-dollars.
type countKey struct {
	from, to market.Money
	k        int64
}

// compareKeys orders counters by (from, k, to). Price order is state
// order, so this is the order of compareCells.
func compareKeys(a, b countKey) int {
	if a.from != b.from {
		return cmp.Compare(a.from, b.from)
	}
	if a.k != b.k {
		return cmp.Compare(a.k, b.k)
	}
	return cmp.Compare(a.to, b.to)
}

// Estimator accumulates observed price transitions from traces. Use one
// estimator per (zone, instance type) pair.
type Estimator struct {
	maxSojourn int64
	// counts holds the non-zero N^k_{i,j}; N_i and the price state space
	// are derived from it when a model is frozen.
	counts map[countKey]int64
	// frozen and prices are the kernel and the price levels of the last
	// model frozen, shared with it and never written; created lists the
	// counters that have come into being since. Between them they name
	// every non-zero counter, so the next freeze merges two sorted lists
	// where the first sorted the whole map: a window sliding by a week
	// creates or empties a handful of the few hundred counters a zone
	// has. All nil until a model has been frozen.
	frozen  []kernelCell
	prices  []market.Money
	created []countKey
	// observations counts complete transitions seen.
	observations int64
}

// NewEstimator creates an estimator with the given sojourn cap in
// minutes; 0 selects DefaultMaxSojourn.
func NewEstimator(maxSojourn int64) *Estimator {
	if maxSojourn <= 0 {
		maxSojourn = DefaultMaxSojourn
	}
	return &Estimator{maxSojourn: maxSojourn, counts: make(map[countKey]int64)}
}

// clampSojourn maps an observed run length onto the sojourn state space
// [1, maxSojourn].
func clampSojourn(k, maxSojourn int64) int64 {
	return min(max(k, 1), maxSojourn)
}

// Observe folds a trace's complete price runs into the counts, merging
// adjacent points of equal price exactly like Trace.Sojourns. The final
// (truncated) run carries no departure information and is skipped.
func (e *Estimator) Observe(tr *trace.Trace) {
	if len(tr.Points) == 0 {
		return
	}
	run := tr.Points[0]
	for _, p := range tr.Points[1:] {
		if p.Price == run.Price {
			continue
		}
		e.add(run.Price, p.Price, clampSojourn(p.Minute-run.Minute, e.maxSojourn))
		run = p
	}
}

// add counts one observed transition from price `from` to price `to`
// after a (pre-clamped) sojourn of k minutes.
func (e *Estimator) add(from, to market.Money, k int64) {
	key := countKey{from, to, k}
	known := len(e.counts)
	e.counts[key]++
	e.observations++
	if e.frozen == nil || len(e.counts) == known {
		return
	}
	// A counter the last frozen kernel does not list, or lists as one
	// that has emptied since. Should the list outgrow the counters — no
	// model frozen through a long churn — the next freeze sorts afresh.
	if len(e.created) > len(e.counts) {
		e.frozen, e.prices, e.created = nil, nil, nil
		return
	}
	e.created = append(e.created, key)
}

// remove undoes one add with the same arguments — the eviction half of
// the sliding-window path. Emptied counters are deleted so the learned
// price state space shrinks exactly as a from-scratch estimator over the
// narrower window would see it.
func (e *Estimator) remove(from, to market.Money, k int64) {
	key := countKey{from, to, k}
	switch c := e.counts[key]; c {
	case 0:
		panic(fmt.Sprintf("smc: removing unobserved transition %v -> %v after %d min", from, to, k))
	case 1:
		delete(e.counts, key)
	default:
		e.counts[key] = c - 1
	}
	e.observations--
}

// Model freezes the counts into a queryable semi-Markov model. It
// errors when no transition has been observed.
func (e *Estimator) Model() (*Model, error) {
	if e.observations == 0 {
		return nil, fmt.Errorf("smc: no transitions observed")
	}
	// The price levels the counters may name, ascending: a handful, so
	// sorted insertion is cheap. Past the first freeze these are the last
	// model's and those of the counters created since, some of which the
	// emptied counters may have left unused.
	levels := slices.Clone(e.prices)
	name := func(key countKey) {
		for _, p := range [2]market.Money{key.from, key.to} {
			if x, ok := slices.BinarySearch(levels, p); !ok {
				levels = slices.Insert(levels, x, p)
			}
		}
	}
	cell := func(key countKey, c int64) kernelCell {
		i, _ := slices.BinarySearch(levels, key.from)
		j, _ := slices.BinarySearch(levels, key.to)
		return kernelCell{from: i, to: j, k: key.k, count: c}
	}
	cells := make([]kernelCell, 0, len(e.counts))
	if e.frozen == nil {
		for key := range e.counts {
			name(key)
		}
		for key, c := range e.counts {
			cells = append(cells, cell(key, c))
		}
		slices.SortFunc(cells, compareCells)
	} else {
		slices.SortFunc(e.created, compareKeys)
		for _, key := range e.created {
			name(key)
		}
		// Merge the last kernel with the created counters, both in kernel
		// order; a counter that emptied and came back is in both, one that
		// emptied is in either and no longer in the map.
		old, created := e.frozen, e.created
		var last countKey
		for len(old) > 0 || len(created) > 0 {
			var key countKey
			if len(old) > 0 {
				key = countKey{e.prices[old[0].from], e.prices[old[0].to], old[0].k}
			}
			if len(old) == 0 || (len(created) > 0 && compareKeys(created[0], key) < 0) {
				key, created = created[0], created[1:]
			} else {
				old = old[1:]
			}
			if c := e.counts[key]; c > 0 && (len(cells) == 0 || key != last) {
				cells = append(cells, cell(key, c))
				last = key
			}
		}
		levels = dropUnusedLevels(levels, cells)
	}
	e.frozen, e.prices, e.created = cells, levels, e.created[:0]
	return newModel(e.maxSojourn, levels, cells), nil
}

// dropUnusedLevels removes the price levels no cell names as source or
// destination and renumbers the cells' states to match.
func dropUnusedLevels(levels []market.Money, cells []kernelCell) []market.Money {
	used := make([]bool, len(levels))
	for _, c := range cells {
		used[c.from], used[c.to] = true, true
	}
	if !slices.Contains(used, false) {
		return levels
	}
	state := make([]int, len(levels))
	kept := levels[:0]
	for x, p := range levels {
		state[x] = len(kept)
		if used[x] {
			kept = append(kept, p)
		}
	}
	for x := range cells {
		cells[x].from, cells[x].to = state[cells[x].from], state[cells[x].to]
	}
	return kept
}

// kernelCell is one non-zero counter N^k_{i,j} over state indices.
type kernelCell struct {
	from, to int
	k, count int64
}

// compareCells orders cells by (from, k, to): the order every reader of
// the kernel — the sojourn tables, the serializer — walks it in.
func compareCells(a, b kernelCell) int {
	if a.from != b.from {
		return cmp.Compare(a.from, b.from)
	}
	if a.k != b.k {
		return cmp.Compare(a.k, b.k)
	}
	return cmp.Compare(a.to, b.to)
}

// kernelRow is the kernel of one (source state, sojourn) pair: the
// cells reached after exactly k minutes, ascending by destination, and
// their total count.
type kernelRow struct {
	k, total int64
	cells    []kernelCell
}

// newModel builds a model over the ascending price levels from cells
// sorted by compareCells, no two sharing (from, k, to). The model keeps
// cells; each state's rows are windows into it.
func newModel(maxSojourn int64, prices []market.Money, cells []kernelCell) *Model {
	n := len(prices)
	m := &Model{
		maxSojourn: maxSojourn,
		prices:     prices,
		cells:      cells,
		out:        make([]int64, n),
		kernel:     make([][]kernelRow, n),
		soj:        make([]atomic.Pointer[sojournData], n),
	}
	nrows := 0
	for x, c := range cells {
		if x == 0 || c.from != cells[x-1].from || c.k != cells[x-1].k {
			nrows++
		}
	}
	// Sized exactly, so the appends below never reallocate and the
	// per-state windows stay valid.
	rows := make([]kernelRow, 0, nrows)
	for lo := 0; lo < len(cells); {
		from, first := cells[lo].from, len(rows)
		for lo < len(cells) && cells[lo].from == from {
			row := kernelRow{k: cells[lo].k}
			hi := lo
			for ; hi < len(cells) && cells[hi].from == from && cells[hi].k == row.k; hi++ {
				row.total += cells[hi].count
			}
			row.cells = cells[lo:hi:hi]
			rows = append(rows, row)
			m.out[from] += row.total
			lo = hi
		}
		m.kernel[from] = rows[first:len(rows):len(rows)]
	}
	return m
}

// Model is a frozen semi-Markov chain estimated from price history.
// The estimated kernel itself is immutable; forecast state (sojourn
// tables, fresh profiles) is built lazily, published copy-on-write
// through atomic pointers, and immutable once published, so a Model is
// safe for concurrent use — many goroutines may Forecast/Kernel/
// Stationary the same instance, which is what lets the modelcache
// provider train once and serve every parallel sweep cell. Cache hits
// are lock-free (a single atomic load); the mutex only serializes the
// builds themselves.
type Model struct {
	maxSojourn int64
	prices     []market.Money
	cells      []kernelCell  // every non-zero N^k_{i,j}, sorted by compareCells
	out        []int64       // N_i
	kernel     [][]kernelRow // per source state: rows ascending by k

	mu       sync.Mutex                    // serializes the lazy builds below
	soj      []atomic.Pointer[sojournData] // published per-state sojourn tables
	profiles atomic.Pointer[freshProfiles] // published fresh-entry occupancy cache
}

// Prices returns the learned price state space, ascending.
func (m *Model) Prices() []market.Money {
	return append([]market.Money(nil), m.prices...)
}

// row returns state i's kernel row for a sojourn of k minutes; the zero
// row when none was observed.
func (m *Model) row(i int, k int64) kernelRow {
	rows := m.kernel[i]
	x, ok := slices.BinarySearchFunc(rows, k, func(r kernelRow, k int64) int { return cmp.Compare(r.k, k) })
	if !ok {
		return kernelRow{}
	}
	return rows[x]
}

// Support summarizes how much training data backs each state — the
// "estimation improves with more spot prices data" observation of the
// paper made quantitative. States with few observed departures produce
// coarse kernels and conservative bids.
type Support struct {
	States             int
	TotalTransitions   int64
	MinStateDepartures int64
	// SparseStates counts states with fewer departures than the
	// threshold passed to SupportSummary.
	SparseStates int
}

// SupportSummary reports per-state training support; states with fewer
// than minDepartures observations count as sparse.
func (m *Model) SupportSummary(minDepartures int64) Support {
	s := Support{States: len(m.prices), MinStateDepartures: -1}
	for _, out := range m.out {
		s.TotalTransitions += out
		if s.MinStateDepartures < 0 || out < s.MinStateDepartures {
			s.MinStateDepartures = out
		}
		if out < minDepartures {
			s.SparseStates++
		}
	}
	if s.MinStateDepartures < 0 {
		s.MinStateDepartures = 0
	}
	return s
}

// MinimalBidOneStep searches the learned price levels for the smallest
// bid whose Equation 14 one-step failure probability meets the target —
// the paper's raw per-time-unit estimate, exposed for ablation against
// the interval forecaster. ok is false when no bid at or below cap
// qualifies.
func (m *Model) MinimalBidOneStep(cur market.Money, k int64, target, fp0 float64, cap market.Money) (market.Money, bool) {
	for _, p := range m.prices {
		if p > cap {
			break
		}
		if m.OneStepFP(cur, k, p, fp0) <= target {
			return p, true
		}
	}
	if m.OneStepFP(cur, k, cap, fp0) <= target {
		return cap, true
	}
	return 0, false
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

// OneStepFP evaluates Equation 14 directly: the failure probability of a
// spot instance for one time unit under bid b, when the current price is
// cur with observed sojourn k, composed with the on-demand failure
// probability fp0. Exposed for comparison with the interval estimator;
// the bidding framework uses Forecast.
func (m *Model) OneStepFP(cur market.Money, k int64, bid market.Money, fp0 float64) float64 {
	if bid <= cur {
		return 1
	}
	i := m.nearestState(cur)
	if k > m.maxSojourn {
		k = m.maxSojourn
	}
	sum := 0.0
	for _, c := range m.row(i, k).cells {
		if m.prices[c.to] <= bid {
			sum += float64(c.count) / float64(m.out[i])
		}
	}
	fp := 1 - (1-fp0)*sum
	if fp < 0 {
		return 0
	}
	if fp > 1 {
		return 1
	}
	return fp
}
