package smc

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/market"
	"repro/internal/trace"
)

func fastTestModel(t *testing.T, seed uint64, weeks int64) (*Model, *trace.Trace) {
	t.Helper()
	set, err := trace.Generate(trace.GenConfig{
		Seed: seed, Type: market.M1Small,
		Zones: []string{"us-east-1a"},
		Start: 0, End: weeks * 7 * 24 * 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := set.ByZone["us-east-1a"]
	e := NewEstimator(0)
	e.Observe(tr)
	m, err := e.Model()
	if err != nil {
		t.Fatal(err)
	}
	return m, tr
}

// refModelOn trains the map-based reference estimator on tr at the
// default sojourn cap.
func refModelOn(t *testing.T, tr *trace.Trace) *refModel {
	t.Helper()
	e := newRefEstimator(0)
	e.Observe(tr)
	m, err := e.Model()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestForecastMatchesReference pins the flat-matrix DP and suffix-sum
// read path bit-identical to the pre-rewrite slice-of-slices
// implementation, across seeds, horizons, and run ages, with every row
// kernel the binary can run.
func TestForecastMatchesReference(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		for _, seed := range []uint64{1, 5, 42, 2014} {
			m, tr := fastTestModel(t, seed, 13)
			rm := refModelOn(t, tr)
			cur := tr.PriceAt(tr.End - 1)
			for _, horizon := range []int64{1, 60, 180, 360} {
				for _, age := range []int64{1, 5, 77, 500, 3 * 24 * 60} {
					got, err := m.Forecast(cur, age, horizon)
					if err != nil {
						t.Fatal(err)
					}
					want := refForecast(rm, cur, age, horizon)
					if len(got.avgOcc) != len(want.avgOcc) {
						t.Fatalf("seed %d h=%d age=%d: %d states, want %d",
							seed, horizon, age, len(got.avgOcc), len(want.avgOcc))
					}
					for s := range got.avgOcc {
						if got.avgOcc[s] != want.avgOcc[s] {
							t.Fatalf("seed %d h=%d age=%d: avgOcc[%d] = %v, want %v (diff %g)",
								seed, horizon, age, s, got.avgOcc[s], want.avgOcc[s],
								got.avgOcc[s]-want.avgOcc[s])
						}
					}
					// Failure probabilities bit-identical at every level, at
					// midpoints between levels, and outside the learned range.
					probe := []market.Money{0, got.prices[0] - 1}
					for i, p := range got.prices {
						probe = append(probe, p)
						if i+1 < len(got.prices) {
							probe = append(probe, (p+got.prices[i+1])/2)
						}
					}
					probe = append(probe, got.prices[len(got.prices)-1]+1000)
					for _, bid := range probe {
						if g, w := got.FailureProbability(bid, 0.01), refFailureProbability(want, bid, 0.01); g != w {
							t.Fatalf("seed %d h=%d age=%d bid=%v: FP %v, want %v", seed, horizon, age, bid, g, w)
						}
						if g, w := outOfBidFraction(got, bid), refOutOfBidFraction(want, bid); g != w {
							t.Fatalf("seed %d h=%d age=%d bid=%v: out %v, want %v", seed, horizon, age, bid, g, w)
						}
					}
				}
			}
		}
	})
}

// TestStationaryMatchesSuffixTable pins that Stationary's Forecast
// answers queries identically through the suffix table.
func TestStationaryMatchesSuffixTable(t *testing.T) {
	m, _ := fastTestModel(t, 42, 13)
	f, err := m.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range f.prices {
		if g, w := outOfBidFraction(f, p), refOutOfBidFraction(f, p); g != w {
			t.Fatalf("bid %v: %v != %v", p, g, w)
		}
	}
}

// TestMinimalBidMatchesLinearScan is the property test: on 1k random
// forecasts the binary-search MinimalBid agrees exactly with the
// pre-rewrite linear scan, for random targets and caps.
func TestMinimalBidMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 1000; trial++ {
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
			occ[i] = rng.Float64()
			sum += occ[i]
		}
		for i := range occ {
			occ[i] /= sum
		}
		f := newForecast(prices, occ, 360)

		fp0 := []float64{0, 0.01, 0.2}[rng.Intn(3)]
		target := rng.Float64()
		var cap market.Money
		switch rng.Intn(4) {
		case 0: // below the lowest level
			cap = prices[0] - 1
		case 1: // exactly a level
			cap = prices[rng.Intn(n)]
		case 2: // between levels / above all
			cap = prices[rng.Intn(n)] + 1
		case 3:
			cap = prices[n-1] + market.Money(rng.Intn(1000))
		}
		if cap < 0 {
			cap = 0
		}

		gotBid, gotOK := f.MinimalBid(target, fp0, cap)
		wantBid, wantOK := refMinimalBid(f, target, fp0, cap)
		if gotBid != wantBid || gotOK != wantOK {
			t.Fatalf("trial %d (n=%d target=%v fp0=%v cap=%v): MinimalBid = (%v, %v), want (%v, %v)",
				trial, n, target, fp0, cap, gotBid, gotOK, wantBid, wantOK)
		}
	}
}

// TestMinimalBidEdgeCases covers the boundary shapes directly: cap
// below the lowest learned level, cap equal to a level, a target
// unreachable at every level, and the empty-model path.
func TestMinimalBidEdgeCases(t *testing.T) {
	prices := []market.Money{100, 200, 300}
	// Binary-exact occupancies so the step function's values are exact:
	// out-of-bid mass is 1 below 100, 0.75 at 100, 0.5 at 200, 0 at 300.
	f := newForecast(prices, stateDist{0.25, 0.25, 0.5}, 60)

	// Cap strictly below the lowest learned level: only the cap itself
	// is a candidate, and it fails any tight target.
	if bid, ok := f.MinimalBid(0.5, 0, 99); ok {
		t.Fatalf("cap below lowest level: got bid %v, want none", bid)
	}
	// ... but a loose target accepts the cap (everything is out of bid).
	if bid, ok := f.MinimalBid(1, 0, 99); !ok || bid != 99 {
		t.Fatalf("cap below lowest level, target 1: got (%v, %v), want (99, true)", bid, ok)
	}

	// Cap equal to a level: that level is still a candidate.
	if bid, ok := f.MinimalBid(0.75, 0, 200); !ok || bid != 100 {
		// FP(100) = 0.75 <= 0.75: the lowest level qualifies.
		t.Fatalf("cap == level: got (%v, %v), want (100, true)", bid, ok)
	}
	if bid, ok := f.MinimalBid(0.4, 0, 200); ok {
		t.Fatalf("cap == level, tight target: got bid %v, want none", bid)
	}
	if bid, ok := f.MinimalBid(0.4, 0, 300); !ok || bid != 300 {
		t.Fatalf("cap == top level: got (%v, %v), want (300, true)", bid, ok)
	}

	// Target below FP0 at every level: composition with fp0 floors the
	// failure probability at fp0, so nothing qualifies.
	if bid, ok := f.MinimalBid(0.005, 0.01, 10_000); ok {
		t.Fatalf("target below fp0: got bid %v, want none", bid)
	}

	// Empty model path: an estimator with no observations cannot build
	// a model at all.
	if _, err := NewEstimator(0).Model(); err == nil {
		t.Fatal("empty estimator built a model")
	}
}

// TestLevelsSharedZeroAlloc pins the Levels fast path: the forecast
// shares its model's immutable price slice, so Levels allocates
// nothing. (Returning a defensive copy cost one allocation per zone per
// Decide; the shared read-only slice was measured faster and is pinned
// here.)
func TestLevelsSharedZeroAlloc(t *testing.T) {
	m, tr := fastTestModel(t, 42, 13)
	f, err := m.Forecast(tr.PriceAt(tr.End-1), 5, 60)
	if err != nil {
		t.Fatal(err)
	}
	var got []market.Money
	if allocs := testing.AllocsPerRun(100, func() {
		got = f.Levels()
	}); allocs != 0 {
		t.Fatalf("Levels allocates %v per call, want 0", allocs)
	}
	if len(got) != len(m.prices) {
		t.Fatalf("Levels returned %d levels, want %d", len(got), len(m.prices))
	}
	// And it really is the shared slice.
	if &got[0] != &f.prices[0] {
		t.Fatal("Levels returned a copy, want the shared slice")
	}
}

// TestForecastColdConcurrent hammers the copy-on-write build path: many
// goroutines forecast a fresh model at once, with ever-growing horizons
// forcing profile republication. Run under -race this pins the
// atomic-pointer publication discipline; the results must also agree
// with a sequential rebuild.
func TestForecastColdConcurrent(t *testing.T) {
	m, tr := fastTestModel(t, 5, 13)
	cur := tr.PriceAt(tr.End - 1)
	horizons := []int64{30, 60, 120, 180, 240, 300, 360}
	var wg sync.WaitGroup
	results := make([]*Forecast, 64)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := horizons[g%len(horizons)]
			f, err := m.Forecast(cur, int64(1+g), h)
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = f
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	rm := refModelOn(t, tr)
	for g, f := range results {
		h := horizons[g%len(horizons)]
		want := refForecast(rm, cur, int64(1+g), h)
		for s := range f.avgOcc {
			if f.avgOcc[s] != want.avgOcc[s] {
				t.Fatalf("goroutine %d: avgOcc[%d] = %v, want %v", g, s, f.avgOcc[s], want.avgOcc[s])
			}
		}
	}
}

// TestSuffixTableMonotone pins the invariant the binary search relies
// on: suffix sums over non-negative occupancies are non-increasing, so
// failure probability is non-increasing in the level index.
func TestSuffixTableMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		prices := make([]market.Money, n)
		for i := range prices {
			prices[i] = market.Money(i + 1)
		}
		occ := make(stateDist, n)
		for i := range occ {
			// Wild magnitude spread to stress float ordering.
			occ[i] = rng.Float64() * math.Pow(10, float64(rng.Intn(12))-6)
		}
		f := newForecast(prices, occ, 1)
		for x := 0; x+1 < len(f.suffix); x++ {
			if f.suffix[x] < f.suffix[x+1] {
				t.Fatalf("trial %d: suffix[%d]=%v < suffix[%d]=%v",
					trial, x, f.suffix[x], x+1, f.suffix[x+1])
			}
		}
	}
}
