package quorum

import (
	"fmt"
	"math"
)

// Availability evaluates Equation 1 exactly: the probability that the
// set of live nodes forms a quorum, where node i fails independently
// with probability p[i]. It enumerates all 2^n live sets; n is the
// system universe size and must equal len(p) and be at most 30.
func Availability(sys System, p []float64) float64 {
	n := sys.N()
	if len(p) != n {
		panic(fmt.Sprintf("quorum: %d probabilities for %d nodes", len(p), n))
	}
	if n > 30 {
		panic("quorum: exact availability limited to n <= 30")
	}
	checkProbabilities(p)
	total := 0.0
	for alive := uint64(0); alive < 1<<uint(n); alive++ {
		if !sys.Accepts(alive) {
			continue
		}
		prob := 1.0
		for i := 0; i < n; i++ {
			if alive&(1<<uint(i)) != 0 {
				prob *= 1 - p[i]
			} else {
				prob *= p[i]
			}
		}
		total += prob
	}
	return total
}

// AvailabilityEqual evaluates a k-of-n threshold system under a common
// node failure probability p using the binomial closed form: the
// probability that at least k of n independent nodes survive. The tail
// sum is built from a single running term — each binomial term derives
// from its neighbor by one multiply instead of two math.Pow calls — so
// the bisection loops in InvertEqualFP stay cheap for large n.
func AvailabilityEqual(n, k int, p float64) float64 {
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("quorum: p = %v outside [0, 1]", p))
	}
	if k < 0 || k > n {
		panic("quorum: k outside [0, n]")
	}
	if p == 0 {
		return 1 // all n survive; k <= n always holds here
	}
	if p == 1 {
		if k == 0 {
			return 1
		}
		return 0
	}
	q := 1 - p
	ratio := p / q
	// term(a) = C(n,a) q^a p^(n-a); term(n) = q^n, and
	// term(a-1) = term(a) * a/(n-a+1) * (p/q).
	t := 1.0
	for i := 0; i < n; i++ {
		t *= q
	}
	total := t
	for a := n; a > k; a-- {
		t *= float64(a) / float64(n-a+1) * ratio
		total += t
	}
	if total > 1 {
		total = 1
	}
	return total
}

// InvertEqualFP returns the largest common node failure probability p
// such that a k-of-n threshold system still achieves the target
// availability. This is the node_failure_pr step of the paper's online
// bidding algorithm (Fig. 3): equalized per-node failure probability
// targets under a fixed quorum rule. It returns an error when even
// perfectly reliable nodes (p = 0) cannot reach the target.
func InvertEqualFP(n, k int, target float64) (float64, error) {
	if target < 0 || target > 1 {
		return 0, fmt.Errorf("quorum: target availability %v outside [0, 1]", target)
	}
	if AvailabilityEqual(n, k, 0) < target {
		return 0, fmt.Errorf("quorum: %d-of-%d cannot reach availability %v", k, n, target)
	}
	lo, hi := 0.0, 1.0
	// Availability is non-increasing in p; bisect to ~1e-12.
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if AvailabilityEqual(n, k, mid) >= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// DowntimeSeconds converts an availability level to expected downtime
// over a period of the given length in seconds.
func DowntimeSeconds(availability, periodSeconds float64) float64 {
	return (1 - availability) * periodSeconds
}

// SecondsPerMonth is a 30-day month, the paper's downtime yardstick.
const SecondsPerMonth = 30 * 24 * 3600.0
