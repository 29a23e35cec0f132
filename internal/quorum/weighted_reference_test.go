package quorum

// Reference (pre-scratch) implementation of the weighted availability
// DP: WeightedThresholdAvailability exactly as it was when it allocated
// its own row and carried its own copy of the recurrence. The tests
// below pin WeightedDP, the package function and the evaluator
// bit-identical to it.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func refWeightedThresholdAvailability(t int, units []int, p []float64) float64 {
	n := len(p)
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
	for i, pi := range p {
		if pi < 0 || pi > 1 || math.IsNaN(pi) {
			panic(fmt.Sprintf("quorum: p[%d] = %v outside [0, 1]", i, pi))
		}
	}
	if t <= 0 {
		return 1
	}
	if t > total {
		return 0
	}
	// Survivor distribution over unit sums, folding one node at a time —
	// the ThresholdAvailability recurrence with a stride of units[i].
	dist := make([]float64, total+1)
	dist[0] = 1
	cum := 0
	for i, pi := range p {
		q := 1 - pi
		u := units[i]
		cum += u
		for b := cum; b >= u; b-- {
			dist[b] = dist[b]*pi + dist[b-u]*q
		}
		for b := u - 1; b >= 0; b-- {
			dist[b] *= pi
		}
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

// TestWeightedDPMatchesReference runs one scratch row over 2000 seeded
// instances whose totals grow and shrink from one call to the next — a
// row that kept a longer group's tail would show here — with thresholds
// on both sides of [1, total] and probabilities that hit 0 and 1
// exactly.
func TestWeightedDPMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2014))
	var dp WeightedDP
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(24)
		maxUnit := []int{1, 4, 70}[rng.Intn(3)]
		units := make([]int, n)
		p := make([]float64, n)
		total := 0
		for i := range units {
			units[i] = 1 + rng.Intn(maxUnit)
			total += units[i]
			switch rng.Intn(8) {
			case 0:
				p[i] = 0
			case 1:
				p[i] = 1
			default:
				p[i] = rng.Float64()
			}
		}
		if rng.Intn(4) == 0 { // a uniform vector, as fitUniformFP probes
			for i := range p {
				p[i] = p[0]
			}
		}
		thr := rng.Intn(total+6) - 2 // -2 .. total+3
		want := math.Float64bits(refWeightedThresholdAvailability(thr, units, p))
		if got := math.Float64bits(dp.Availability(thr, units, p)); got != want {
			t.Fatalf("trial %d: scratch %x, reference %x (t=%d units=%v p=%v)", trial, got, want, thr, units, p)
		}
		if got := math.Float64bits(WeightedThresholdAvailability(thr, units, p)); got != want {
			t.Fatalf("trial %d: one-shot %x, reference %x (t=%d units=%v p=%v)", trial, got, want, thr, units, p)
		}
		if thr >= 1 && thr <= total { // at t = 0 the evaluator sums the row, the function returns 1
			if got := math.Float64bits(baselineAvailability(NewWeightedThresholdEvaluator(thr, units, p))); got != want {
				t.Fatalf("trial %d: evaluator %x, reference %x (t=%d units=%v p=%v)", trial, got, want, thr, units, p)
			}
		}
	}
}

// TestWeightedDPValidates: the scratch row rejects what the reference
// rejects, with the same message, and stays usable afterwards.
func TestWeightedDPValidates(t *testing.T) {
	message := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return
	}
	var dp WeightedDP
	for _, c := range []struct {
		units []int
		p     []float64
	}{
		{[]int{1, 2}, []float64{0.1}},
		{[]int{1, 0}, []float64{0.1, 0.1}},
		{[]int{1, 2}, []float64{0.1, -0.1}},
		{[]int{1, 2}, []float64{1.1, 0.1}},
		{[]int{1, 2}, []float64{0.1, math.NaN()}},
	} {
		want := message(func() { refWeightedThresholdAvailability(2, c.units, c.p) })
		if got := message(func() { dp.Availability(2, c.units, c.p) }); got != want || got == "<nil>" {
			t.Errorf("units=%v p=%v: scratch panics %q, reference %q", c.units, c.p, got, want)
		}
	}
	if got := dp.Availability(2, []int{1, 2}, []float64{0.5, 0.5}); got != 0.5 {
		t.Fatalf("after rejected inputs: %v, want 0.5", got)
	}
}
