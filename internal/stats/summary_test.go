package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Fatalf("Variance = %v, want 4", v)
	}
}

func TestMeanEmpty(t *testing.T) {
	if m := Mean(nil); m != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", m)
	}
	if v := Variance([]float64{3}); v != 0 {
		t.Fatalf("Variance(single) = %v, want 0", v)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 0.3); math.Abs(got-3) > 1e-12 {
		t.Fatalf("Percentile(0.3) = %v, want 3", got)
	}
}

func TestPercentileSingle(t *testing.T) {
	if got := Percentile([]float64{42}, 0.99); got != 42 {
		t.Fatalf("Percentile single = %v, want 42", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{5, 1, 3, 2, 4})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 {
		t.Fatalf("unexpected summary: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("Summary.String empty")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatalf("Summarize(nil).N = %d", s.N)
	}
}

func TestPercentileMonotone(t *testing.T) {
	r := NewRNG(77)
	f := func(seed uint32) bool {
		rr := NewRNG(uint64(seed))
		n := rr.Intn(40) + 2
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		sort.Float64s(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.05 {
			q := Percentile(xs, p)
			if q < prev-1e-9 {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCategoricalDistribution(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	c := NewCategorical(weights)
	r := NewRNG(99)
	counts := make([]int, 4)
	const n = 400000
	for i := 0; i < n; i++ {
		counts[c.Sample(r)]++
	}
	total := 10.0
	for i, w := range weights {
		got := float64(counts[i]) / n
		want := w / total
		if math.Abs(got-want) > 0.005 {
			t.Errorf("outcome %d freq = %v, want ~%v", i, got, want)
		}
	}
}

func TestCategoricalSingleOutcome(t *testing.T) {
	c := NewCategorical([]float64{3.5})
	r := NewRNG(1)
	for i := 0; i < 100; i++ {
		if c.Sample(r) != 0 {
			t.Fatal("single-outcome categorical returned nonzero index")
		}
	}
}

func TestCategoricalZeroWeightNeverSampled(t *testing.T) {
	c := NewCategorical([]float64{0, 1, 0})
	r := NewRNG(2)
	for i := 0; i < 10000; i++ {
		if s := c.Sample(r); s != 1 {
			t.Fatalf("sampled zero-weight outcome %d", s)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	cases := [][]float64{nil, {}, {0, 0}, {-1, 2}, {math.NaN()}, {math.Inf(1)}}
	for _, ws := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCategorical(%v) did not panic", ws)
				}
			}()
			NewCategorical(ws)
		}()
	}
}
