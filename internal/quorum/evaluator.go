package quorum

import (
	"fmt"
	"math"
)

// ThresholdEvaluator answers "what is the k-of-n availability if node
// i's failure probability were pi?" in O(n) per query, against a fixed
// baseline probability vector. The heterogeneous-bid descent in the
// bidding framework probes every node's next-lower price level on every
// iteration; with the plain Poisson-binomial DP each probe costs O(n²),
// making an iteration O(n³). The evaluator pays one O(n²) build for
// prefix survivor distributions and suffix tail tables, after which a
// leave-one-out probe combines the two halves around the probed node.
//
// For node i with probability replaced by pi:
//
//	avail = (1-pi)·P(S₋ᵢ ≥ k-1) + pi·P(S₋ᵢ ≥ k)
//
// where S₋ᵢ counts survivors among all other nodes, and
//
//	P(S₋ᵢ ≥ t) = Σₐ prefix[i][a] · sufTail[i+1][t-a]
//
// sums over a, the survivor count among nodes before i.
type ThresholdEvaluator struct {
	k, n int
	// prefix rows: row i (length i+1) at offset i(i+1)/2 holds
	// P(exactly a of nodes 0..i-1 alive).
	prefix []float64
	// sufTail rows: row i (length n+2, stride n+2) holds
	// P(at least t of nodes i..n-1 alive) for t = 0..n+1.
	sufTail []float64
	total   float64
}

// NewThresholdEvaluator builds the evaluator for a k-of-n threshold
// system over the failure probabilities p. Validation matches
// ThresholdAvailability.
func NewThresholdEvaluator(k int, p []float64) *ThresholdEvaluator {
	n := len(p)
	if k < 0 || k > n {
		panic("quorum: k outside [0, n]")
	}
	checkProbabilities(p)
	ev := &ThresholdEvaluator{
		k: k, n: n,
		prefix:  make([]float64, (n+1)*(n+2)/2),
		sufTail: make([]float64, (n+1)*(n+2)),
	}
	// Prefix survivor distributions, extending one node at a time with
	// the same in-place recurrence (and therefore the same rounding) as
	// ThresholdAvailability.
	dist := make([]float64, n+1)
	dist[0] = 1
	ev.prefix[0] = 1
	off := 1
	for i, pi := range p {
		q := 1 - pi
		for j := i + 1; j >= 1; j-- {
			dist[j] = dist[j]*pi + dist[j-1]*q
		}
		dist[0] *= pi
		copy(ev.prefix[off:off+i+2], dist[:i+2])
		off += i + 2
	}
	// The full-vector availability from the completed distribution —
	// bit-identical to ThresholdAvailability by construction.
	for j := k; j <= n; j++ {
		ev.total += dist[j]
	}
	if ev.total > 1 {
		ev.total = 1
	}
	// Suffix tail tables, built right to left.
	for b := range dist {
		dist[b] = 0
	}
	dist[0] = 1
	ev.setTail(n, dist[:1])
	for i := n - 1; i >= 0; i-- {
		pi := p[i]
		q := 1 - pi
		m := n - i
		for b := m; b >= 1; b-- {
			dist[b] = dist[b]*pi + dist[b-1]*q
		}
		dist[0] *= pi
		ev.setTail(i, dist[:m+1])
	}
	return ev
}

// setTail fills sufTail row i from the survivor distribution d of nodes
// i..n-1.
func (ev *ThresholdEvaluator) setTail(i int, d []float64) {
	row := ev.sufTail[i*(ev.n+2) : (i+1)*(ev.n+2)]
	for t := len(d) - 1; t >= 0; t-- {
		row[t] = row[t+1] + d[t]
	}
}

// tailWithout returns P(S₋ᵢ ≥ t): the probability that at least t nodes
// other than i survive.
func (ev *ThresholdEvaluator) tailWithout(i, t int) float64 {
	if t <= 0 {
		return 1
	}
	pre := ev.prefix[i*(i+1)/2 : i*(i+1)/2+i+1]
	suf := ev.sufTail[(i+1)*(ev.n+2) : (i+2)*(ev.n+2)]
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

// Availability returns the k-of-n availability of the baseline vector,
// bit-identical to ThresholdAvailability over the same p.
func (ev *ThresholdEvaluator) Availability() float64 { return ev.total }

// WithNode returns the k-of-n availability with node i's failure
// probability replaced by pi. O(n).
func (ev *ThresholdEvaluator) WithNode(i int, pi float64) float64 {
	if i < 0 || i >= ev.n {
		panic(fmt.Sprintf("quorum: node %d outside [0, %d)", i, ev.n))
	}
	if pi < 0 || pi > 1 || math.IsNaN(pi) {
		panic(fmt.Sprintf("quorum: p = %v outside [0, 1]", pi))
	}
	a := (1-pi)*ev.tailWithout(i, ev.k-1) + pi*ev.tailWithout(i, ev.k)
	if a > 1 {
		a = 1
	}
	return a
}
