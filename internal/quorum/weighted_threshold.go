package quorum

import (
	"fmt"
	"math"
)

// Capacity-weighted threshold quorums generalize the k-of-n rule to
// heterogeneous pools: node i carries an integer capacity units[i] (a
// base-capacity node carries market.UnitsPerNode), the service is up
// when the unit sum of live nodes reaches a unit threshold t, and
// Equation 11's observation that a node of weight w counts as w
// survivors carries over verbatim — the Poisson-binomial survivor-count
// DP simply walks unit sums instead of node counts.
//
// The weighted DP below intentionally performs the exact floating-point
// operation sequence of the node-count survivor DP (dist[j] =
// dist[j]·p + dist[j-1]·q) whenever every unit is 1, so an
// all-equal-weight fleet evaluates bit-identically to the k-of-n rule;
// the property tests pin this against that DP, which they keep as their
// oracle.

// RSPaxosQuorumUnits is RSPaxosQuorumSize over capacity units: the
// minimal live unit sum for an RS-Paxos group with totalUnits units of
// capacity carrying shardUnits units of data chunks (m data chunks ×
// the per-node unit quantum). For a fleet of n base-capacity nodes it
// equals RSPaxosQuorumSize(n, m) whole nodes exactly:
// ceil((Qn+Qm)/2) units is reached precisely by ceil((n+m)/2) nodes of
// Q units each.
func RSPaxosQuorumUnits(totalUnits, shardUnits int) int {
	return (totalUnits + shardUnits + 1) / 2
}

// weightedTotal validates the capacity units of an n-node system and
// returns their sum.
func weightedTotal(units []int, n int) int {
	if len(units) != n {
		panic(fmt.Sprintf("quorum: %d unit weights for %d nodes", len(units), n))
	}
	total := 0
	for i, u := range units {
		if u < 1 {
			panic(fmt.Sprintf("quorum: units[%d] = %d not positive", i, u))
		}
		total += u
	}
	return total
}

// checkProbabilities is the validation every availability routine of
// the package applies to a failure-probability vector.
func checkProbabilities(p []float64) {
	for i, pi := range p {
		if pi < 0 || pi > 1 || math.IsNaN(pi) {
			panic(fmt.Sprintf("quorum: p[%d] = %v outside [0, 1]", i, pi))
		}
	}
}

// foldNode folds one node of u capacity units and failure probability
// pi into dist, the survivor distribution over unit sums of the nodes
// folded so far (cum includes this node), leaving entries below from
// as they were. It is the node-count survivor recurrence with a stride
// of u, and the only copy of it: every weighted result in this
// file rounds the same way because it comes out of this loop.
func foldNode(dist []float64, from, cum, u int, pi float64) {
	q := 1 - pi
	for b, lo := cum, max(u, from); b >= lo; b-- {
		dist[b] = dist[b]*pi + dist[b-u]*q
	}
	for b, lo := u-1, max(0, from); b >= lo; b-- {
		dist[b] *= pi
	}
}

// WeightedDP is WeightedThresholdAvailability with a reusable
// survivor-distribution row, for callers that evaluate many groups in
// a loop (the pool planner probes thousands per Decide). The zero value
// is ready; results are bit-identical to the package function. Not safe
// for concurrent use.
type WeightedDP struct{ dist []float64 }

// Availability is WeightedThresholdAvailability on the scratch row.
func (d *WeightedDP) Availability(t int, units []int, p []float64) float64 {
	total := weightedTotal(units, len(p))
	checkProbabilities(p)
	if t <= 0 {
		return 1
	}
	if t > total {
		return 0
	}
	if cap(d.dist) < total+1 {
		d.dist = make([]float64, total+1)
	}
	dist := d.dist[:total+1]
	clear(dist) // the row may hold a previous, longer group's distribution
	dist[0] = 1
	cum := 0
	for i, pi := range p {
		cum += units[i]
		// Unit sums below t-(total-cum) cannot reach t with the nodes
		// still to fold, and no entry at or above is computed from one.
		foldNode(dist, t-(total-cum), cum, units[i], pi)
	}
	sum := 0.0
	for b := t; b <= total; b++ {
		sum += dist[b]
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// WeightedThresholdAvailability returns the probability that the unit
// sum of live nodes reaches t, where node i fails independently with
// probability p[i] and carries units[i] capacity units. t <= 0 is
// trivially available; t beyond the total unit sum is unreachable.
// Every p[i] must lie in [0, 1] and units must be positive.
// O(n · total units).
func WeightedThresholdAvailability(t int, units []int, p []float64) float64 {
	var d WeightedDP
	return d.Availability(t, units, p)
}

// WeightedThresholdEvaluator answers "what is the availability of the
// unit-threshold-t system if node i's failure probability were pi?" in
// O(total units) per query, against a fixed baseline probability
// vector; with the plain DP each probe costs O(n · total units). The
// evaluator pays that once, for prefix survivor distributions and suffix
// tail tables, after which a leave-one-out probe combines the two halves
// around the probed node. The bidding framework no longer calls it: its
// callers are the benchmark's quorum.evaluator_probe_ns probe and tests.
//
// For node i of u units with probability replaced by pi:
//
//	avail = (1-pi)·P(S₋ᵢ ≥ t-u) + pi·P(S₋ᵢ ≥ t)
//
// where S₋ᵢ is the live unit sum of all other nodes, and
//
//	P(S₋ᵢ ≥ b) = Σₐ prefix[i][a] · sufTail[i+1][b-a]
//
// sums over a, the live unit sum among nodes before i.
type WeightedThresholdEvaluator struct {
	t, n  int
	units []int
	// prefix rows: row i (from offset preOff[i] up to preOff[i+1]) holds
	// P(exactly b units of nodes 0..i-1 alive).
	prefix []float64
	preOff []int
	// sufTail rows: row i (stride totalUnits+2) holds P(at least b
	// units of nodes i..n-1 alive) for b = 0..totalUnits+1.
	sufTail []float64
	stride  int
}

// NewWeightedThresholdEvaluator builds the evaluator for the
// unit-threshold-t system over failure probabilities p and capacity
// units. Validation matches WeightedThresholdAvailability, with
// t in [0, total units].
//
// The tables are sized in units of the weights' greatest common divisor
// g, with the threshold rounded up to ⌈t/g⌉: a fleet of base-type nodes
// (every unit market.UnitsPerNode) costs what a fleet of unit weights
// costs. This is exact, not approximate. Live unit sums are multiples of
// g, so every table entry off that lattice is +0, and each one the
// un-normalised evaluator reads it either adds to a running sum or
// multiplies by a finite factor and adds, which moves no bit; and a unit
// sum reaches t exactly when it reaches the next multiple of g.
func NewWeightedThresholdEvaluator(t int, units []int, p []float64) *WeightedThresholdEvaluator {
	totalU := weightedTotal(units, len(p))
	if t < 0 || t > totalU {
		panic(fmt.Sprintf("quorum: unit threshold %d outside [0, %d]", t, totalU))
	}
	checkProbabilities(p)
	g := 0
	for _, u := range units {
		for u != 0 { // Euclid: g = gcd(g, units[i])
			g, u = u, g%u
		}
	}
	g = max(g, 1) // no nodes at all
	scaled := make([]int, len(units))
	for i, u := range units {
		scaled[i] = u / g
	}
	return newWeightedEvaluator((t+g-1)/g, scaled, p)
}

// newWeightedEvaluator builds the tables over validated inputs, in the
// units given; it keeps units.
func newWeightedEvaluator(t int, units []int, p []float64) *WeightedThresholdEvaluator {
	n := len(p)
	ev := &WeightedThresholdEvaluator{t: t, n: n, units: units, preOff: make([]int, n+1)}
	totalU := 0
	for i, u := range units {
		ev.preOff[i+1] = ev.preOff[i] + totalU + 1
		totalU += u
	}
	ev.stride = totalU + 2
	ev.prefix = make([]float64, ev.preOff[n]+totalU+1)
	ev.sufTail = make([]float64, (n+1)*ev.stride)
	// Prefix survivor distributions, extending one node at a time with
	// the fold (and therefore the rounding) of WeightedThresholdAvailability.
	dist := make([]float64, totalU+1)
	dist[0] = 1
	ev.prefix[0] = 1
	cum := 0
	for i, pi := range p {
		cum += units[i]
		foldNode(dist, 0, cum, units[i], pi)
		copy(ev.prefix[ev.preOff[i+1]:], dist[:cum+1])
	}
	// Suffix tail tables, built right to left.
	for b := range dist {
		dist[b] = 0
	}
	dist[0] = 1
	ev.setTail(n, dist[:1])
	m := 0
	for i := n - 1; i >= 0; i-- {
		m += units[i]
		foldNode(dist, 0, m, units[i], p[i])
		ev.setTail(i, dist[:m+1])
	}
	return ev
}

// setTail fills sufTail row i from the unit-sum survivor distribution d
// of nodes i..n-1.
func (ev *WeightedThresholdEvaluator) setTail(i int, d []float64) {
	row := ev.sufTail[i*ev.stride : (i+1)*ev.stride]
	for b := len(d) - 1; b >= 0; b-- {
		row[b] = row[b+1] + d[b]
	}
}

// tailWithout returns P(unit sum of live nodes other than i >= t).
func (ev *WeightedThresholdEvaluator) tailWithout(i, t int) float64 {
	if t <= 0 {
		return 1
	}
	pre := ev.prefix[ev.preOff[i]:ev.preOff[i+1]]
	suf := ev.sufTail[(i+1)*ev.stride : (i+2)*ev.stride]
	s := 0.0
	for a, pa := range pre {
		if a >= t {
			// Every remaining prefix term already clears t on its own;
			// sufTail[·][0] = 1, so the sum telescopes to the prefix tail.
			for _, rest := range pre[a:] {
				s += rest
			}
			break
		}
		s += pa * suf[t-a]
	}
	return s
}

// WithNode returns the availability with node i's failure probability
// replaced by pi. O(total units).
func (ev *WeightedThresholdEvaluator) WithNode(i int, pi float64) float64 {
	if i < 0 || i >= ev.n {
		panic(fmt.Sprintf("quorum: node %d outside [0, %d)", i, ev.n))
	}
	if pi < 0 || pi > 1 || math.IsNaN(pi) {
		panic(fmt.Sprintf("quorum: p = %v outside [0, 1]", pi))
	}
	a := (1-pi)*ev.tailWithout(i, ev.t-ev.units[i]) + pi*ev.tailWithout(i, ev.t)
	if a > 1 {
		a = 1
	}
	return a
}
