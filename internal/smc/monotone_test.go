package smc

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/market"
)

// The pool planner (core's rebid) reads a failure-probability interval
// instead of a number: a bid answered the same at both ends of the
// interval is taken as the answer everywhere inside it. That is sound
// only if the minimal bid is monotone non-increasing in its target —
// counting "no bid" as the highest bid of all. The tests below pin it
// where a step function is most likely to break it: targets exactly at
// the failure probability of a level, one ulp either side, and caps that
// are themselves learned levels.

// checkNonIncreasing asserts that minBid does not rise as the target
// does.
func checkNonIncreasing(t *testing.T, what string, targets []float64, minBid func(target float64) (market.Money, bool)) {
	t.Helper()
	slices.Sort(targets)
	prevBid, prevOK := minBid(targets[0])
	for i, target := range targets[1:] {
		bid, ok := minBid(target)
		if prevOK && (!ok || bid > prevBid) {
			t.Fatalf("%s: target %x -> (%v, %v), but the larger %x -> (%v, %v)", what,
				math.Float64bits(targets[i]), prevBid, prevOK, math.Float64bits(target), bid, ok)
		}
		prevBid, prevOK = bid, ok
	}
}

// around returns the probabilities with their float neighbours and the
// ends of the range.
func around(ps []float64) []float64 {
	out := []float64{-1, 0, 1, 1.5}
	for _, p := range ps {
		out = append(out, math.Nextafter(p, -1), p, math.Nextafter(p, 2))
	}
	return out
}

// capsFor draws caps below, at, between and above the price levels.
func capsFor(rng *rand.Rand, prices []market.Money) []market.Money {
	n := len(prices)
	return []market.Money{
		max(prices[0]-1, 0),
		prices[rng.Intn(n)],
		prices[rng.Intn(n)],
		prices[rng.Intn(n)] + 1,
		prices[n-1] + market.Money(rng.Intn(1000)),
	}
}

func TestMinimalBidNonIncreasingInTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(2014))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		prices := make([]market.Money, n)
		p := market.Money(1 + rng.Intn(50))
		for i := range prices {
			prices[i] = p
			p += market.Money(1 + rng.Intn(200))
		}
		occ := make(stateDist, n)
		var sum float64
		for i := range occ {
			if rng.Intn(3) > 0 { // a third of the states unoccupied: flat steps
				occ[i] = rng.Float64()
				sum += occ[i]
			}
		}
		for i := range occ {
			if sum > 0 {
				occ[i] /= sum
			}
		}
		f := newForecast(prices, occ, 360)
		fp0 := []float64{0, 0.01, 0.2}[rng.Intn(3)]
		var steps []float64
		for x := 0; x <= n; x++ {
			steps = append(steps, f.failureAt(x, fp0))
		}
		for _, cap := range capsFor(rng, prices) {
			checkNonIncreasing(t, "MinimalBid", around(steps), func(target float64) (market.Money, bool) {
				return f.MinimalBid(target, fp0, cap)
			})
		}
	}
}

func TestMinimalBidOneStepNonIncreasingInTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(2014))
	for seed := uint64(1); seed <= 4; seed++ {
		m, _ := fastTestModel(t, seed, 6)
		prices := m.prices
		for trial := 0; trial < 100; trial++ {
			cur := prices[rng.Intn(len(prices))]
			k := 1 + rng.Int63n(2*DefaultMaxSojourn)
			fp0 := []float64{0, 0.01, 0.2}[rng.Intn(3)]
			f, err := m.Forecast(cur, k, 1)
			if err != nil {
				t.Fatal(err)
			}
			var steps []float64
			for x := 0; x <= len(prices); x++ {
				steps = append(steps, f.failureAt(x, fp0))
			}
			for _, cap := range capsFor(rng, prices) {
				checkNonIncreasing(t, "one-minute MinimalBid", around(steps), func(target float64) (market.Money, bool) {
					return f.MinimalBid(target, fp0, cap)
				})
			}
		}
	}
}
