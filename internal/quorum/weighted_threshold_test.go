package quorum

import (
	"math/rand"
	"testing"
)

// TestWeightedUnitWeightsBitIdentical pins the back-compat invariant:
// with every unit weight 1 the weighted DP performs the exact
// floating-point operation sequence of the node-count DP, so results are
// bit-identical (==, not approximately equal), and the evaluator's
// baseline is that same number.
func TestWeightedUnitWeightsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		p := make([]float64, n)
		units := make([]int, n)
		for i := range p {
			p[i] = rng.Float64()
			units[i] = 1
		}
		k := 1 + rng.Intn(n)
		want := ThresholdAvailability(k, p)
		if got := WeightedThresholdAvailability(k, units, p); got != want {
			t.Fatalf("trial %d: WeightedThresholdAvailability(%d) = %v, ThresholdAvailability = %v", trial, k, got, want)
		}
		if got := baselineAvailability(NewWeightedThresholdEvaluator(k, units, p)); got != want {
			t.Fatalf("trial %d: evaluator Availability %v != %v", trial, got, want)
		}
	}
}

// TestWeightedAvailabilityMonotone checks that weighted availability is
// monotone in each pool's survival probability: raising any single
// node's failure probability never raises availability (200 random
// instances).
func TestWeightedAvailabilityMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		p := make([]float64, n)
		units := make([]int, n)
		total := 0
		for i := range p {
			p[i] = rng.Float64()
			units[i] = 1 + rng.Intn(40)
			total += units[i]
		}
		thr := 1 + rng.Intn(total)
		base := WeightedThresholdAvailability(thr, units, p)
		i := rng.Intn(n)
		worse := append([]float64(nil), p...)
		worse[i] = p[i] + (1-p[i])*rng.Float64()
		if got := WeightedThresholdAvailability(thr, units, worse); got > base+1e-15 {
			t.Fatalf("trial %d: raising p[%d] %v→%v raised availability %v→%v (t=%d units=%v)",
				trial, i, p[i], worse[i], base, got, thr, units)
		}
		// The evaluator's leave-one-out probe must agree with a full
		// recompute at the probed value.
		ev := NewWeightedThresholdEvaluator(thr, units, p)
		probe := rng.Float64()
		re := append([]float64(nil), p...)
		re[i] = probe
		if got, want := ev.WithNode(i, probe), WeightedThresholdAvailability(thr, units, re); !near(got, want) {
			t.Fatalf("trial %d: WithNode(%d, %v) = %v, recompute %v", trial, i, probe, got, want)
		}
	}
}

func near(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-12
}

// TestWeightedAgainstEnumeration cross-checks the unit-sum DP against
// brute-force subset enumeration on small universes.
func TestWeightedAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		p := make([]float64, n)
		units := make([]int, n)
		total := 0
		for i := range p {
			p[i] = rng.Float64()
			units[i] = 1 + rng.Intn(30)
			total += units[i]
		}
		thr := 1 + rng.Intn(total)
		want := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			prob := 1.0
			alive := 0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					prob *= 1 - p[i]
					alive += units[i]
				} else {
					prob *= p[i]
				}
			}
			if alive >= thr {
				want += prob
			}
		}
		if got := WeightedThresholdAvailability(thr, units, p); !near(got, want) {
			t.Fatalf("trial %d: DP %v, enumeration %v (t=%d units=%v p=%v)", trial, got, want, thr, units, p)
		}
	}
}

// TestRSPaxosQuorumUnitsNodeEquivalence verifies the unit-threshold
// rule degenerates to the node-count rule for fleets of equal-weight
// nodes: a live unit sum of a·Q clears (nQ+mQ+1)/2 exactly when a
// clears (n+m+1)/2, for every parity and unit quantum.
func TestRSPaxosQuorumUnitsNodeEquivalence(t *testing.T) {
	for _, q := range []int{1, 2, 16, 17} {
		for n := 1; n <= 12; n++ {
			for m := 1; m <= n; m++ {
				for alive := 0; alive <= n; alive++ {
					nodeUp := alive >= RSPaxosQuorumSize(n, m)
					unitUp := alive*q >= RSPaxosQuorumUnits(n*q, m*q)
					if nodeUp != unitUp {
						t.Fatalf("q=%d n=%d m=%d alive=%d: node rule %v, unit rule %v", q, n, m, alive, nodeUp, unitUp)
					}
				}
			}
		}
	}
}

// TestWeightedThresholdEdgeCases pins the boundary behavior callers
// rely on: t <= 0 is always available, t beyond total units never is.
func TestWeightedThresholdEdgeCases(t *testing.T) {
	units := []int{3, 5}
	p := []float64{0.4, 0.6}
	if got := WeightedThresholdAvailability(0, units, p); got != 1 {
		t.Fatalf("t=0 availability %v, want 1", got)
	}
	if got := WeightedThresholdAvailability(9, units, p); got != 0 {
		t.Fatalf("t>U availability %v, want 0", got)
	}
	// A single node is up iff it survives.
	if got, want := WeightedThresholdAvailability(7, []int{7}, []float64{0.25}), 0.75; !near(got, want) {
		t.Fatalf("single node availability %v, want %v", got, want)
	}
}
