package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 equal outputs", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	// Must not be stuck at zero.
	nonzero := false
	for i := 0; i < 10; i++ {
		if r.Uint64() != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("zero seed produced all-zero stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) hit only %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(5)
	const lambda = 2.0
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		x := r.ExpFloat64(lambda)
		if x < 0 {
			t.Fatalf("exponential sample negative: %v", x)
		}
		sum += x
	}
	mean := sum / n
	if math.Abs(mean-1/lambda) > 0.01 {
		t.Fatalf("exp mean = %v, want ~%v", mean, 1/lambda)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(9)
	const mu, sigma = 3.0, 2.0
	const n = 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.NormFloat64(mu, sigma)
	}
	m := Mean(xs)
	sd := math.Sqrt(Variance(xs))
	if math.Abs(m-mu) > 0.03 {
		t.Fatalf("normal mean = %v, want ~%v", m, mu)
	}
	if math.Abs(sd-sigma) > 0.03 {
		t.Fatalf("normal sd = %v, want ~%v", sd, sigma)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(23)
	f := func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(31)
	child := parent.Split()
	// The child stream must differ from the parent's continuation.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split stream matches parent %d/100 times", same)
	}
}
