package quorum

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestMajority(t *testing.T) {
	m5 := Majority(5)
	if m5.K() != 3 {
		t.Fatalf("Majority(5).K() = %d, want 3", m5.K())
	}
	if m5.FaultTolerance() != 2 {
		t.Fatalf("Majority(5) tolerates %d, want 2", m5.FaultTolerance())
	}
	if !m5.Accepts(0b00111) {
		t.Error("3 live nodes rejected")
	}
	if m5.Accepts(0b00011) {
		t.Error("2 live nodes accepted")
	}
	if !m5.Accepts(0b11111) {
		t.Error("all live rejected")
	}
	if m5.Accepts(0) {
		t.Error("empty set accepted")
	}
}

func TestThresholdIgnoresOutOfRangeBits(t *testing.T) {
	m3 := Majority(3)
	// Bits beyond the universe must not count toward the quorum.
	if m3.Accepts(0b11000) {
		t.Error("out-of-range bits counted")
	}
	if !m3.Accepts(0b11011) {
		t.Error("in-range majority rejected when high bits set")
	}
}

func TestNewThresholdPanics(t *testing.T) {
	cases := []struct{ n, k int }{
		{0, 1}, {5, 0}, {5, 6}, {5, 2} /* 2-of-5 does not intersect */, {65, 33},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewThreshold(%d, %d) did not panic", c.n, c.k)
				}
			}()
			NewThreshold(c.n, c.k)
		}()
	}
}

func TestRSPaxosQuorumSize(t *testing.T) {
	cases := []struct{ n, m, want int }{
		{5, 3, 4}, // θ(3,5): the paper's storage configuration
		{5, 1, 3}, // replication degenerates to majority
		{6, 3, 5},
		{7, 3, 5},
		{9, 3, 6},
	}
	for _, c := range cases {
		if got := RSPaxosQuorumSize(c.n, c.m); got != c.want {
			t.Errorf("RSPaxosQuorumSize(%d, %d) = %d, want %d", c.n, c.m, got, c.want)
		}
	}
}

func TestRSPaxosToleratesOneOfFive(t *testing.T) {
	rs := RSPaxos(5, 3)
	if rs.FaultTolerance() != 1 {
		t.Fatalf("θ(3,5) tolerates %d failures, want 1 (paper §5.1.2)", rs.FaultTolerance())
	}
	// Any two write quorums intersect in >= 3 nodes.
	qs := MinimalQuorums(rs)
	for i, a := range qs {
		for _, b := range qs[i+1:] {
			inter := 0
			for bit := 0; bit < 5; bit++ {
				if a&b&(1<<uint(bit)) != 0 {
					inter++
				}
			}
			if inter < 3 {
				t.Fatalf("write quorums %b and %b intersect in %d < 3 nodes", a, b, inter)
			}
		}
	}
}

func TestWeightedPaperExample(t *testing.T) {
	// §4.1: p = (0.01, 0.1, 0.1) — the reliable node's weight dominates
	// the sum of the other two, so the system degenerates to a monarchy.
	sys := OptimalSystem([]float64{0.01, 0.1, 0.1})
	if !sys.Accepts(0b001) {
		t.Error("reliable node alone should form a quorum")
	}
	if sys.Accepts(0b110) {
		t.Error("two unreliable nodes should not outvote the reliable one")
	}
}

func TestOptimalWeightsValues(t *testing.T) {
	w := OptimalWeights([]float64{0.01, 0.1, 0.1})
	if math.Abs(w[0]-math.Log2(99)) > 1e-12 {
		t.Errorf("w[0] = %v, want log2(99)", w[0])
	}
	if math.Abs(w[1]-math.Log2(9)) > 1e-12 {
		t.Errorf("w[1] = %v, want log2(9)", w[1])
	}
}

func TestOptimalWeightsMonarchy(t *testing.T) {
	// All p >= 1/2: monarchy with the most reliable node as king.
	sys := OptimalSystem([]float64{0.9, 0.6, 0.7})
	if !sys.Accepts(0b010) {
		t.Error("king (node 1) alone should form a quorum")
	}
	if sys.Accepts(0b101) {
		t.Error("non-king nodes should not form a quorum")
	}
	// The weighted vote is the monarchy of the first most reliable node
	// on every live set, ties among kings included.
	for _, p := range [][]float64{
		{0.9, 0.6, 0.7},
		{0.5, 0.5, 0.5, 0.5},
		{1, 0.75, 0.75, 0.99, 0.5},
		{0.6},
		{1, 1},
	} {
		king := 0
		for i, pi := range p {
			if pi < p[king] {
				king = i
			}
		}
		sys, want := OptimalSystem(p), Monarchy(len(p), king)
		for alive := uint64(0); alive < 1<<uint(len(p)); alive++ {
			if got := sys.Accepts(alive); got != want.Accepts(alive) {
				t.Fatalf("p=%v alive=%b: OptimalSystem accepts %v, Monarchy(%d, %d) %v", p, alive, got, len(p), king, !got)
			}
		}
	}
}

func TestOptimalWeightsDummies(t *testing.T) {
	w := OptimalWeights([]float64{0.1, 0.8, 0.1, 0.1})
	if w[1] != 0 {
		t.Errorf("node with p=0.8 got weight %v, want 0 (dummy)", w[1])
	}
	for _, i := range []int{0, 2, 3} {
		if w[i] <= 0 {
			t.Errorf("node %d got weight %v, want > 0", i, w[i])
		}
	}
}

func TestOptimalWeightsZeroP(t *testing.T) {
	w := OptimalWeights([]float64{0, 0.1, 0.1})
	if math.IsInf(w[0], 0) || math.IsNaN(w[0]) {
		t.Fatalf("p=0 produced non-finite weight %v", w[0])
	}
	if w[0] <= w[1] {
		t.Fatalf("perfect node weight %v not dominant over %v", w[0], w[1])
	}
}

func TestEqualPWeightsActLikeMajority(t *testing.T) {
	p := []float64{0.05, 0.05, 0.05, 0.05, 0.05}
	sys := OptimalSystem(p)
	maj := Majority(5)
	for alive := uint64(0); alive < 32; alive++ {
		if sys.Accepts(alive) != maj.Accepts(alive) {
			t.Fatalf("equal-p weighted system disagrees with majority on %05b", alive)
		}
	}
}

// TestWeightedTieBreak pins the floating-point edge found by the
// property test: when a set and its complement carry exactly half the
// total weight each, exactly one of them (the side holding node 0) is
// a quorum.
func TestWeightedTieBreak(t *testing.T) {
	// Evenly splittable weights.
	sys := NewWeighted([]float64{1, 1, 1, 1})
	s := uint64(0b0011) // {0,1} vs {2,3}: exact tie
	c := uint64(0b1100)
	if sys.Accepts(s) == sys.Accepts(c) {
		t.Fatalf("tie broken inconsistently: S=%v complement=%v", sys.Accepts(s), sys.Accepts(c))
	}
	if !sys.Accepts(s) {
		t.Fatal("side holding node 0 should win the tie")
	}
	// The regression input from the randomized property test.
	ws := []float64{0.757, 0.484, 0.399, 0.15, 0.177, 0.88, 0.787}
	wsys := NewWeighted(ws)
	if !IsMonotone(wsys) || !Intersects(wsys) {
		t.Fatal("regression weights violate quorum-system invariants")
	}
}

func TestExplicitSystem(t *testing.T) {
	// Grid-ish system over 4 nodes: quorums {0,1}, {0,2,3}, {1,2,3}.
	sys := NewExplicit(4, []uint64{0b0011, 0b1101, 0b1110})
	if !sys.Accepts(0b0011) || !sys.Accepts(0b1111) {
		t.Error("quorum containing live set rejected")
	}
	if sys.Accepts(0b0100) {
		t.Error("non-quorum accepted")
	}
	if !IsMonotone(sys) {
		t.Error("explicit system not monotone")
	}
	if !Intersects(sys) {
		t.Error("explicit system does not intersect")
	}
}

func TestNewExplicitRejectsNonIntersecting(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("disjoint quorums accepted")
		}
	}()
	NewExplicit(4, []uint64{0b0011, 0b1100})
}

func TestNewExplicitRejectsEmptyAndOutOfRange(t *testing.T) {
	for _, qs := range [][]uint64{{}, {0}, {1 << 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewExplicit(3, %v) did not panic", qs)
				}
			}()
			NewExplicit(3, qs)
		}()
	}
}

func TestMonarchy(t *testing.T) {
	m := Monarchy(5, 2)
	if !m.Accepts(0b00100) {
		t.Error("king alone rejected")
	}
	if m.Accepts(0b11011) {
		t.Error("all-but-king accepted")
	}
}

func TestMinimalQuorumsMajority(t *testing.T) {
	qs := MinimalQuorums(Majority(5))
	if len(qs) != 10 { // C(5,3)
		t.Fatalf("got %d minimal quorums, want C(5,3)=10", len(qs))
	}
	for _, q := range qs {
		n := 0
		for b := q; b != 0; b &= b - 1 {
			n++
		}
		if n != 3 {
			t.Fatalf("minimal quorum %b has %d nodes, want 3", q, n)
		}
	}
}

// Property: every threshold and weighted system is monotone and
// intersecting (Definition 1).
func TestSystemsAreValidQuorumSystems(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%8) + 1
		k := n/2 + 1 + int(kRaw)%(n-n/2)
		if k > n {
			k = n
		}
		sys := NewThreshold(n, k)
		return IsMonotone(sys) && Intersects(sys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	g := func(seed uint32) bool {
		n := int(seed%6) + 2
		ws := make([]float64, n)
		s := seed
		for i := range ws {
			s = s*1664525 + 1013904223
			ws[i] = float64(s%1000)/1000 + 0.001
		}
		sys := NewWeighted(ws)
		return IsMonotone(sys) && Intersects(sys)
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// RSPaxos returns the quorum system of an RS-Paxos group with n nodes
// and m data chunks. θ(3,5) yields 4-of-5: it tolerates only one node
// failure, unlike replication's two (paper §5.1.2).
func RSPaxos(n, m int) Threshold {
	if m < 1 || m > n {
		panic(fmt.Sprintf("quorum: RS-Paxos m=%d outside [1, %d]", m, n))
	}
	return NewThreshold(n, RSPaxosQuorumSize(n, m))
}

// FaultTolerance returns the largest number of simultaneous node
// failures the system survives.
func (t Threshold) FaultTolerance() int { return t.n - t.k }

// Explicit is a quorum system given by an explicit collection of quorums
// (bitmasks); a live set is accepted when it contains one of them.
type Explicit struct {
	n       int
	quorums []uint64
}

// N implements System.
func (e Explicit) N() int { return e.n }

// Accepts implements System.
func (e Explicit) Accepts(alive uint64) bool {
	for _, q := range e.quorums {
		if alive&q == q {
			return true
		}
	}
	return false
}

// Monarchy is the single-king quorum system: the service is up exactly
// when the king is. Optimal when every failure probability is >= 1/2
// (Amir & Wool).
func Monarchy(n, king int) Explicit {
	checkN(n)
	if king < 0 || king >= n {
		panic("quorum: king outside universe")
	}
	return Explicit{n: n, quorums: []uint64{1 << uint(king)}}
}

// NewExplicit builds an explicit system from quorum bitmasks. It panics
// when the collection is empty, a quorum is empty or out of range, or
// two quorums fail to intersect (Definition 1 would be violated by
// monotone closure).
func NewExplicit(n int, quorums []uint64) Explicit {
	checkN(n)
	if len(quorums) == 0 {
		panic("quorum: explicit system needs at least one quorum")
	}
	m := mask(n)
	for i, q := range quorums {
		if q == 0 {
			panic("quorum: empty quorum")
		}
		if q&^m != 0 {
			panic(fmt.Sprintf("quorum: quorum %d references nodes outside universe", i))
		}
		for _, r := range quorums[i+1:] {
			if q&r == 0 {
				panic("quorum: quorums do not pairwise intersect")
			}
		}
	}
	return Explicit{n: n, quorums: append([]uint64(nil), quorums...)}
}

// MinimalQuorums enumerates the minimal accepted sets S(A) of a system:
// accepted sets none of whose proper subsets are accepted (Definition 1).
// Exponential in n; intended for small universes and tests.
func MinimalQuorums(sys System) []uint64 {
	n := sys.N()
	if n > 24 {
		panic("quorum: MinimalQuorums limited to n <= 24")
	}
	var out []uint64
	for s := uint64(1); s < 1<<uint(n); s++ {
		if !sys.Accepts(s) {
			continue
		}
		minimal := true
		for b := s; b != 0 && minimal; b &= b - 1 {
			low := b & (-b)
			if sys.Accepts(s &^ low) {
				minimal = false
			}
		}
		if minimal {
			out = append(out, s)
		}
	}
	return out
}

// IsMonotone verifies Definition 1's monotonicity over the whole lattice:
// every superset of an accepted set is accepted. Exponential in n.
func IsMonotone(sys System) bool {
	n := sys.N()
	if n > 20 {
		panic("quorum: IsMonotone limited to n <= 20")
	}
	for s := uint64(0); s < 1<<uint(n); s++ {
		if !sys.Accepts(s) {
			continue
		}
		for i := 0; i < n; i++ {
			sup := s | 1<<uint(i)
			if !sys.Accepts(sup) {
				return false
			}
		}
	}
	return true
}

// Intersects verifies Definition 1's intersection property: any two
// accepted sets share a node. Exponential in n.
func Intersects(sys System) bool {
	qs := MinimalQuorums(sys)
	for i, a := range qs {
		for _, b := range qs[i+1:] {
			if a&b == 0 {
				return false
			}
		}
	}
	return len(qs) > 0
}

// K returns the quorum size.
func (t Threshold) K() int { return t.k }
