package quorum

import (
	"math"
	"math/rand"
	"testing"
)

// ones is the unit vector of an unweighted k-of-n system: the evaluator
// is the weighted one, and these tests hold it, at unit weights, to the
// node-count oracle ThresholdAvailability.
func ones(n int) []int {
	u := make([]int, n)
	for i := range u {
		u[i] = 1
	}
	return u
}

func randProbs(rng *rand.Rand, n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		switch rng.Intn(5) {
		case 0:
			p[i] = 0
		case 1:
			p[i] = 1
		default:
			p[i] = rng.Float64()
		}
	}
	return p
}

// baselineAvailability is the evaluator's availability at its baseline
// vector, summed from its last prefix row (the full survivor
// distribution) as WeightedThresholdAvailability sums its own.
func baselineAvailability(ev *WeightedThresholdEvaluator) float64 {
	a := 0.0
	for _, d := range ev.prefix[ev.preOff[ev.n]+ev.t:] {
		a += d
	}
	return min(a, 1)
}

// TestEvaluatorAvailabilityBitIdentical pins that the evaluator's
// baseline availability is bit-identical to the DP oracle: the prefix
// build uses the oracle's exact recurrence and summation order.
func TestEvaluatorAvailabilityBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(24)
		k := rng.Intn(n + 1)
		p := randProbs(rng, n)
		ev := NewWeightedThresholdEvaluator(k, ones(n), p)
		if got, want := baselineAvailability(ev), ThresholdAvailability(k, p); got != want {
			t.Fatalf("trial %d (n=%d k=%d): Availability %v, oracle %v", trial, n, k, got, want)
		}
	}
}

// TestEvaluatorWithNode checks the O(n) leave-one-out probe against
// rebuilding the oracle with the substituted probability. The two sum
// the same terms in different orders, so agreement is to within a few
// ulps rather than bit-exact.
func TestEvaluatorWithNode(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(20)
		k := rng.Intn(n + 1)
		p := randProbs(rng, n)
		ev := NewWeightedThresholdEvaluator(k, ones(n), p)
		for i := 0; i < n; i++ {
			for _, pi := range []float64{0, 1, rng.Float64(), p[i]} {
				sub := append([]float64(nil), p...)
				sub[i] = pi
				got := ev.WithNode(i, pi)
				want := ThresholdAvailability(k, sub)
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("trial %d (n=%d k=%d i=%d pi=%v): WithNode %v, oracle %v (diff %g)",
						trial, n, k, i, pi, got, want, got-want)
				}
			}
		}
	}
}

// TestEvaluatorWithNodeUnchanged: probing a node with its own baseline
// probability must agree with the baseline availability.
func TestEvaluatorWithNodeUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(16)
		k := rng.Intn(n + 1)
		p := randProbs(rng, n)
		ev := NewWeightedThresholdEvaluator(k, ones(n), p)
		base := baselineAvailability(ev)
		for i := 0; i < n; i++ {
			if got := ev.WithNode(i, p[i]); math.Abs(got-base) > 1e-12 {
				t.Fatalf("trial %d (n=%d k=%d): WithNode(%d, p[%d]) = %v, baseline %v",
					trial, n, k, i, i, got, base)
			}
		}
	}
}

// TestEvaluatorEdgeCases covers the degenerate thresholds directly.
func TestEvaluatorEdgeCases(t *testing.T) {
	// k = 0: always available, whatever the probe.
	ev := NewWeightedThresholdEvaluator(0, ones(2), []float64{0.3, 0.9})
	if a := baselineAvailability(ev); a != 1 {
		t.Fatalf("k=0 availability %v", a)
	}
	if a := ev.WithNode(1, 1); a != 1 {
		t.Fatalf("k=0 WithNode %v", a)
	}
	// k = n with a certain failure: unavailable unless that node is probed
	// back to certainty.
	ev = NewWeightedThresholdEvaluator(2, ones(2), []float64{0, 1})
	if a := baselineAvailability(ev); a != 0 {
		t.Fatalf("certain-failure availability %v", a)
	}
	if a := ev.WithNode(1, 0); a != 1 {
		t.Fatalf("probe to p=0: %v", a)
	}
	// Single node.
	ev = NewWeightedThresholdEvaluator(1, ones(1), []float64{0.25})
	if a := baselineAvailability(ev); a != 0.75 {
		t.Fatalf("1-of-1 availability %v", a)
	}
	if a := ev.WithNode(0, 0.5); a != 0.5 {
		t.Fatalf("1-of-1 probe %v", a)
	}
}

// TestEvaluatorGCDNormalisationIsExact: the constructor sizes its tables
// in units of the weights' gcd. Against the same tables built in the
// units given — once per group, below — every answer is the same to the
// bit: the benchmark's four type weights (gcd 2), a fleet of base-type
// nodes (gcd 16, a zone-only market's group), and coprime weights the
// normalisation leaves alone.
func TestEvaluatorGCDNormalisationIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, palette := range [][]int{{16, 24, 34, 68}, {16}, {3, 5, 7}} {
		for trial := 0; trial < 100; trial++ {
			n := 1 + rng.Intn(15)
			units := make([]int, n)
			total := 0
			for i := range units {
				units[i] = palette[rng.Intn(len(palette))]
				total += units[i]
			}
			p := randProbs(rng, n)
			thr := rng.Intn(total + 1)
			got := NewWeightedThresholdEvaluator(thr, units, p)
			want := newWeightedEvaluator(thr, units, p)
			if palette[0] == 16 && len(got.sufTail) >= len(want.sufTail) {
				t.Fatalf("units %v: %d table entries, un-normalised %d", units, len(got.sufTail), len(want.sufTail))
			}
			if g, w := math.Float64bits(baselineAvailability(got)), math.Float64bits(baselineAvailability(want)); g != w {
				t.Fatalf("units %v t=%d: Availability %x, un-normalised %x", units, thr, g, w)
			}
			for i := 0; i < n; i++ {
				for _, pi := range []float64{0, 1, rng.Float64(), p[i]} {
					if g, w := math.Float64bits(got.WithNode(i, pi)), math.Float64bits(want.WithNode(i, pi)); g != w {
						t.Fatalf("units %v t=%d p=%v: WithNode(%d, %v) %x, un-normalised %x", units, thr, p, i, pi, g, w)
					}
				}
			}
		}
	}
}

// BenchmarkEvaluatorProbe measures one probe of every node — build
// once, probe every node — against the oracle-per-probe pattern.
func BenchmarkEvaluatorProbe(b *testing.B) {
	for _, n := range []int{5, 9, 15, 24} {
		rng := rand.New(rand.NewSource(int64(n)))
		p := make([]float64, n)
		for i := range p {
			p[i] = rng.Float64() * 0.1
		}
		k, units := n/2+1, ones(n)
		b.Run("evaluator/n="+itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for it := 0; it < b.N; it++ {
				ev := NewWeightedThresholdEvaluator(k, units, p)
				for i := 0; i < n; i++ {
					_ = ev.WithNode(i, p[i]*0.5)
				}
			}
		})
		b.Run("oracle/n="+itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for it := 0; it < b.N; it++ {
				for i := 0; i < n; i++ {
					old := p[i]
					p[i] = old * 0.5
					_ = ThresholdAvailability(k, p)
					p[i] = old
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
