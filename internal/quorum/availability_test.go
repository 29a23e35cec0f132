package quorum

import (
	"math"
	"testing"
	"testing/quick"
)

// TestPaperWorkedExample pins the §3 example: a 5-node Paxos system with
// per-node failure probability 0.01 has expected availability
// 0.9999901494, about 25.5 seconds of downtime per month.
func TestPaperWorkedExample(t *testing.T) {
	a := AvailabilityEqual(5, 3, 0.01)
	if math.Abs(a-0.9999901494) > 1e-9 {
		t.Fatalf("availability = %.10f, want 0.9999901494", a)
	}
	down := DowntimeSeconds(a, SecondsPerMonth)
	if math.Abs(down-25.5) > 0.1 {
		t.Fatalf("downtime = %.2f s/month, want ~25.5", down)
	}
}

// TestRSPaxosAvailability pins the θ(3,5) storage quorum at p=0.01:
// q^5 + 5pq^4.
func TestRSPaxosAvailability(t *testing.T) {
	a := AvailabilityEqual(5, 4, 0.01)
	q := 0.99
	want := math.Pow(q, 5) + 5*0.01*math.Pow(q, 4)
	if math.Abs(a-want) > 1e-12 {
		t.Fatalf("availability = %v, want %v", a, want)
	}
	// Storage availability target is materially lower than the lock
	// service's: tolerating 1 failure instead of 2.
	if a >= AvailabilityEqual(5, 3, 0.01) {
		t.Fatal("4-of-5 should be less available than 3-of-5")
	}
}

func TestAvailabilityMatchesClosedForm(t *testing.T) {
	for _, n := range []int{1, 3, 5, 7} {
		k := n/2 + 1
		for _, p := range []float64{0, 0.01, 0.1, 0.5, 0.9, 1} {
			ps := make([]float64, n)
			for i := range ps {
				ps[i] = p
			}
			exact := Availability(NewThreshold(n, k), ps)
			closed := AvailabilityEqual(n, k, p)
			if math.Abs(exact-closed) > 1e-12 {
				t.Errorf("n=%d p=%v: exact %v vs closed %v", n, p, exact, closed)
			}
		}
	}
}

func TestAvailabilityHeterogeneous(t *testing.T) {
	// 3 nodes, majority; hand-computed.
	p := []float64{0.1, 0.2, 0.3}
	// P(>=2 alive) = q1q2q3 + p1q2q3 + q1p2q3 + q1q2p3
	q := []float64{0.9, 0.8, 0.7}
	want := q[0]*q[1]*q[2] + p[0]*q[1]*q[2] + q[0]*p[1]*q[2] + q[0]*q[1]*p[2]
	got := Availability(Majority(3), p)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("availability = %v, want %v", got, want)
	}
}

func TestAvailabilityMonarchy(t *testing.T) {
	p := []float64{0.25, 0.9, 0.9}
	got := Availability(Monarchy(3, 0), p)
	if math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("monarchy availability = %v, want 0.75 (only the king matters)", got)
	}
}

func TestAvailabilityEdgeCases(t *testing.T) {
	if a := AvailabilityEqual(5, 3, 0); a != 1 {
		t.Errorf("p=0 availability = %v, want 1", a)
	}
	if a := AvailabilityEqual(5, 3, 1); a != 0 {
		t.Errorf("p=1 availability = %v, want 0", a)
	}
}

func TestAvailabilityPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("length mismatch did not panic")
			}
		}()
		Availability(Majority(3), []float64{0.1})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad probability did not panic")
			}
		}()
		Availability(Majority(3), []float64{0.1, 0.2, 1.5})
	}()
}

// Property: availability is non-increasing in every node's failure
// probability.
func TestAvailabilityMonotoneInP(t *testing.T) {
	f := func(seed uint32) bool {
		n := int(seed%5)*2 + 3 // odd n in {3,...,11}... keep <= 11
		if n > 11 {
			n = 11
		}
		sys := Majority(n)
		s := seed
		ps := make([]float64, n)
		for i := range ps {
			s = s*1664525 + 1013904223
			ps[i] = float64(s%900) / 1000
		}
		base := Availability(sys, ps)
		// Bump one node's failure probability.
		i := int(s % uint32(n))
		bumped := append([]float64(nil), ps...)
		bumped[i] = math.Min(1, bumped[i]+0.05)
		return Availability(sys, bumped) <= base+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: more nodes at the same majority rule never hurt availability
// for p < 1/2 (5 -> 7 nodes).
func TestMoreNodesHelpWhenReliable(t *testing.T) {
	for _, p := range []float64{0.01, 0.05, 0.1, 0.3} {
		a5 := AvailabilityEqual(5, 3, p)
		a7 := AvailabilityEqual(7, 4, p)
		if a7 < a5 {
			t.Errorf("p=%v: 7-node availability %v < 5-node %v", p, a7, a5)
		}
	}
}

func TestThresholdAvailabilityMatchesExact(t *testing.T) {
	ps := []float64{0.01, 0.2, 0.05, 0.33, 0.11}
	for k := 3; k <= 5; k++ {
		exact := Availability(NewThreshold(5, k), ps)
		fast := ThresholdAvailability(k, ps)
		if math.Abs(exact-fast) > 1e-12 {
			t.Errorf("k=%d: exact %v vs DP %v", k, exact, fast)
		}
	}
}

func TestThresholdAvailabilityLargeN(t *testing.T) {
	// The DP handles universes far beyond the 2^n enumerator.
	p := make([]float64, 100)
	for i := range p {
		p[i] = 0.02
	}
	a := ThresholdAvailability(51, p)
	if a < 0.9999999 {
		t.Fatalf("100 nodes at p=0.02, majority availability %v", a)
	}
	if a > 1 {
		t.Fatalf("availability %v > 1", a)
	}
}

func TestThresholdAvailabilityEdges(t *testing.T) {
	if a := ThresholdAvailability(0, []float64{0.5, 0.5}); a != 1 {
		t.Errorf("k=0 availability %v", a)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("k > n did not panic")
			}
		}()
		ThresholdAvailability(3, []float64{0.1})
	}()
}

func TestInvertEqualFP(t *testing.T) {
	target := AvailabilityEqual(5, 3, 0.01)
	p, err := InvertEqualFP(5, 3, target)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.01) > 1e-9 {
		t.Fatalf("inverted p = %v, want 0.01", p)
	}
}

func TestInvertEqualFPRoundTrip(t *testing.T) {
	f := func(seedN, seedT uint16) bool {
		n := int(seedN%5)*2 + 3 // 3,5,7,9,11
		k := n/2 + 1
		target := 0.9 + float64(seedT%1000)/10010 // in [0.9, ~0.9999)
		p, err := InvertEqualFP(n, k, target)
		if err != nil {
			return false
		}
		a := AvailabilityEqual(n, k, p)
		// Availability at the returned p must meet the target (within
		// bisection tolerance).
		return a >= target-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestInvertEqualFPHigherNAllowsWorseNodes(t *testing.T) {
	// The bidding algorithm's payoff: larger groups tolerate worse
	// per-node failure probabilities at the same service availability.
	target := AvailabilityEqual(5, 3, 0.01)
	p5, err := InvertEqualFP(5, 3, target)
	if err != nil {
		t.Fatal(err)
	}
	p7, err := InvertEqualFP(7, 4, target)
	if err != nil {
		t.Fatal(err)
	}
	p9, err := InvertEqualFP(9, 5, target)
	if err != nil {
		t.Fatal(err)
	}
	if !(p9 > p7 && p7 > p5) {
		t.Fatalf("expected p9 > p7 > p5, got %v, %v, %v", p9, p7, p5)
	}
}

func TestInvertEqualFPUnreachable(t *testing.T) {
	if _, err := InvertEqualFP(1, 1, 1.5); err == nil {
		t.Fatal("target > 1 accepted")
	}
}

func TestInvertEqualFPTargetOne(t *testing.T) {
	p, err := InvertEqualFP(3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// float64 cannot distinguish availability 1-3p^2 from 1 below
	// p ~ 1e-8, so the bisection bottoms out around there.
	if p > 1e-6 {
		t.Fatalf("perfect availability needs p = %v, want ~0", p)
	}
}

// Property: the running-term binomial tail sum agrees with the exact
// 2^n enumerator on majority systems across random n and p — the
// incremental recurrence must not drift from the defining Equation 1.
func TestAvailabilityEqualMatchesExactProperty(t *testing.T) {
	f := func(seedN, seedP uint32) bool {
		n := int(seedN%6)*2 + 3 // odd n in {3,5,7,9,11,13}
		sys := Majority(n)
		k := sys.K()
		p := float64(seedP%10001) / 10000 // p in [0, 1] inclusive
		ps := make([]float64, n)
		for i := range ps {
			ps[i] = p
		}
		exact := Availability(sys, ps)
		closed := AvailabilityEqual(n, k, p)
		return math.Abs(exact-closed) <= 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The uniform-p Poisson-binomial DP and the running-term tail sum are
// two independent routes to the same number.
func TestAvailabilityEqualMatchesThresholdDP(t *testing.T) {
	for _, n := range []int{1, 2, 5, 20, 60} {
		for _, p := range []float64{0, 1e-6, 0.01, 0.37, 0.5, 0.93, 1} {
			ps := make([]float64, n)
			for i := range ps {
				ps[i] = p
			}
			for _, k := range []int{0, 1, n / 2, n} {
				dp := ThresholdAvailability(k, ps)
				closed := AvailabilityEqual(n, k, p)
				if math.Abs(dp-closed) > 1e-12 {
					t.Errorf("n=%d k=%d p=%v: DP %v vs closed %v", n, k, p, dp, closed)
				}
			}
		}
	}
}

// TestBaselineReadsOneUlpBelowItsOwnTarget records why a planner may not
// gate the on-demand baseline on the DP. The availability target of a
// service is the closed form at the baseline (AvailabilityEqual: BaseNodes
// nodes at FP'); the same five nodes through either DP come out one ulp
// lower, for both shipped specs. A group of exactly W base nodes, each no
// worse than the W-node equalized target, therefore meets Equation 10 by
// monotonicity and is not put to the DP (core/pools.go, evaluate) — put
// to it, the baseline the target was computed from is rejected.
func TestBaselineReadsOneUlpBelowItsOwnTarget(t *testing.T) {
	const fp0 = 0.01 // market.OnDemandFailureProbability
	for _, c := range []struct {
		name       string
		k          int // of 5
		closed, dp uint64
	}{
		{"lock, majority of 5", 3, 0x3fefffeb577fd84d, 0x3fefffeb577fd84c},
		{"theta(3,5) storage", 4, 0x3feff7f87a30bae1, 0x3feff7f87a30bae0},
	} {
		p := []float64{fp0, fp0, fp0, fp0, fp0}
		if got := math.Float64bits(AvailabilityEqual(5, c.k, fp0)); got != c.closed {
			t.Errorf("%s: closed form %#x, recorded %#x", c.name, got, c.closed)
		}
		if got := math.Float64bits(ThresholdAvailability(c.k, p)); got != c.dp {
			t.Errorf("%s: DP %#x, recorded %#x", c.name, got, c.dp)
		}
		if got := math.Float64bits(WeightedThresholdAvailability(16*c.k, []int{16, 16, 16, 16, 16}, p)); got != c.dp {
			t.Errorf("%s: weighted DP %#x, recorded %#x", c.name, got, c.dp)
		}
	}
}

// binom computes C(n, k) exactly for small arguments. It was once a
// production helper; the closed forms all moved to running-term sums,
// so it survives only as the oracle for their coefficient tests.
func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
	}
	return r
}

func TestBinom(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 0, 1}, {5, 1, 5}, {5, 2, 10}, {5, 3, 10}, {5, 5, 1}, {5, 6, 0}, {5, -1, 0},
	}
	for _, c := range cases {
		if got := binom(c.n, c.k); got != c.want {
			t.Errorf("binom(%d, %d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestDowntimeSeconds(t *testing.T) {
	if d := DowntimeSeconds(1, SecondsPerMonth); d != 0 {
		t.Errorf("perfect availability downtime = %v", d)
	}
	if d := DowntimeSeconds(0.99, 100); math.Abs(d-1) > 1e-12 {
		t.Errorf("99%% of 100s downtime = %v, want 1", d)
	}
}
