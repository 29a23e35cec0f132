package smc

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"repro/internal/market"
	"repro/internal/trace"
)

// cell is one non-zero N^k_{i,j} over state indices.
type cell struct {
	from, to int
	k, count int64
}

// compareCells orders cells in kernel order, (from, k, to).
func compareCells(a, b cell) int {
	if a.from != b.from {
		return cmp.Compare(a.from, b.from)
	}
	if a.k != b.k {
		return cmp.Compare(a.k, b.k)
	}
	return cmp.Compare(a.to, b.to)
}

// kernelCounts is an estimator's Equation 13 counts over the states its
// model has: the ascending prices some count names, N_i, and every
// non-zero N^k_{i,j} in kernel order. It reads the estimator's levels
// and counter chains directly, so the counts are pinned apart from the
// tables a freeze builds from them.
type kernelCounts struct {
	maxSojourn int64
	prices     []market.Money
	out        []int64
	cells      []cell
}

func countsOf(e *Estimator) *kernelCounts {
	kc := &kernelCounts{maxSojourn: e.maxSojourn}
	state := make([]int, len(e.levels))
	for _, id := range e.byPrice {
		if lv := &e.levels[id]; lv.out > 0 || lv.in > 0 {
			state[id] = len(kc.prices)
			kc.prices = append(kc.prices, lv.price)
			kc.out = append(kc.out, lv.out)
		}
	}
	for _, id := range e.byPrice {
		for k, x := range e.levels[id].bySojourn {
			for ; x != 0; x = e.counters[x-1].next {
				c := &e.counters[x-1]
				kc.cells = append(kc.cells, cell{from: state[id], to: state[c.to], k: int64(k) + 1, count: c.count})
			}
		}
	}
	return kc
}

// row returns the cells of state i after a sojourn of k minutes.
func (kc *kernelCounts) row(i int, k int64) []cell {
	lo, _ := slices.BinarySearchFunc(kc.cells, cell{from: i, k: k}, compareCells)
	hi := lo
	for hi < len(kc.cells) && kc.cells[hi].from == i && kc.cells[hi].k == k {
		hi++
	}
	return kc.cells[lo:hi]
}

// kernelProb evaluates q̂(i,j,k) = N^k_{i,j}/N_i for prices si, sj and
// sojourn k (Equation 13). Unknown states or sojourns yield 0.
func kernelProb(kc *kernelCounts, si, sj market.Money, k int64) float64 {
	i, ok := slices.BinarySearch(kc.prices, si)
	if !ok {
		return 0
	}
	j, ok := slices.BinarySearch(kc.prices, sj)
	if !ok {
		return 0
	}
	for _, c := range kc.row(i, k) {
		if c.to == j {
			return float64(c.count) / float64(kc.out[i])
		}
	}
	return 0
}

// sojournPMF returns P(sojourn = k minutes | current price = p), the
// row-marginal of the kernel over destinations. Unknown prices or
// sojourns yield 0.
func sojournPMF(kc *kernelCounts, p market.Money, k int64) float64 {
	i, ok := slices.BinarySearch(kc.prices, p)
	if !ok {
		return 0
	}
	var total int64
	for _, c := range kc.row(i, k) {
		total += c.count
	}
	if total == 0 {
		return 0
	}
	return float64(total) / float64(kc.out[i])
}

// outOfBidFraction returns the expected fraction of the forecast's
// interval during which the spot price strictly exceeds bid.
func outOfBidFraction(f *Forecast, bid market.Money) float64 {
	return f.outAt(f.levelAbove(bid))
}

// alternating builds a trace flipping between priceA (durA minutes) and
// priceB (durB minutes) for the given number of cycles.
func alternating(priceA, priceB market.Money, durA, durB int64, cycles int) *trace.Trace {
	tr := &trace.Trace{Zone: "test-1a", Type: market.M1Small, Start: 0}
	now := int64(0)
	for c := 0; c < cycles; c++ {
		tr.Points = append(tr.Points, trace.PricePoint{Minute: now, Price: priceA})
		now += durA
		tr.Points = append(tr.Points, trace.PricePoint{Minute: now, Price: priceB})
		now += durB
	}
	tr.End = now
	return tr
}

const (
	pA = market.Money(7100)
	pB = market.Money(9000)
)

func altEstimator() *Estimator {
	e := NewEstimator(0)
	e.Observe(alternating(pA, pB, 10, 5, 50))
	return e
}

func altModel(t *testing.T) *Model {
	t.Helper()
	m, err := altEstimator().Model()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEstimatorCountsTransitions(t *testing.T) {
	e := NewEstimator(0)
	e.Observe(alternating(pA, pB, 10, 5, 3))
	// 6 runs, last truncated: 5 complete transitions.
	if got := e.observations; got != 5 {
		t.Fatalf("Observations = %d, want 5", got)
	}
}

func TestEmptyEstimatorErrors(t *testing.T) {
	if _, err := NewEstimator(0).Model(); err == nil {
		t.Fatal("model built from zero observations")
	}
}

func TestKernelValues(t *testing.T) {
	m := countsOf(altEstimator())
	// Every departure from A is to B after exactly 10 minutes.
	if q := kernelProb(m, pA, pB, 10); math.Abs(q-1) > 1e-12 {
		t.Errorf("q(A->B, 10) = %v, want 1", q)
	}
	if q := kernelProb(m, pA, pB, 5); q != 0 {
		t.Errorf("q(A->B, 5) = %v, want 0", q)
	}
	if q := kernelProb(m, pB, pA, 5); math.Abs(q-1) > 1e-12 {
		t.Errorf("q(B->A, 5) = %v, want 1", q)
	}
	if q := kernelProb(m, pA, market.Money(123), 10); q != 0 {
		t.Errorf("unknown destination kernel = %v, want 0", q)
	}
	if q := kernelProb(m, market.Money(123), pA, 10); q != 0 {
		t.Errorf("unknown source kernel = %v, want 0", q)
	}
}

func TestKernelRowsSumToOne(t *testing.T) {
	// Train on a realistic generated trace; each source state's kernel
	// mass over all (j, k) must total 1.
	set, err := trace.Generate(trace.GenConfig{
		Seed: 21, Type: market.M1Small,
		Zones: []string{"us-east-1a"}, Start: 0, End: 4 * 7 * 24 * 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEstimator(0)
	e.Observe(set.ByZone["us-east-1a"])
	m := countsOf(e)
	for i, src := range m.prices {
		if m.out[i] == 0 {
			continue
		}
		sum := 0.0
		for k := int64(1); k <= m.maxSojourn; k++ {
			for _, dst := range m.prices {
				sum += kernelProb(m, src, dst, k)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("kernel row for %v sums to %v", src, sum)
		}
	}
}

func TestSojournPMF(t *testing.T) {
	m := countsOf(altEstimator())
	if got := sojournPMF(m, pA, 10); math.Abs(got-1) > 1e-12 {
		t.Errorf("SojournPMF(A, 10) = %v, want 1", got)
	}
	if got := sojournPMF(m, pA, 9); got != 0 {
		t.Errorf("SojournPMF(A, 9) = %v, want 0", got)
	}
	if got := sojournPMF(m, market.Money(1), 10); got != 0 {
		t.Errorf("unknown price pmf = %v, want 0", got)
	}
}

func TestForecastLevels(t *testing.T) {
	m := altModel(t)
	f, err := m.Forecast(pA, 1, 14)
	if err != nil {
		t.Fatal(err)
	}
	levels := f.Levels()
	if len(levels) != 2 || levels[0] != pA || levels[1] != pB {
		t.Fatalf("Levels = %v", levels)
	}
}

func TestSupportSummary(t *testing.T) {
	m := altModel(t) // 50 cycles: 50 departures from A, 49 from B
	s := m.SupportSummary()
	if s.States != 2 {
		t.Fatalf("States = %d", s.States)
	}
	if s.TotalTransitions != 99 {
		t.Fatalf("TotalTransitions = %d, want 99", s.TotalTransitions)
	}
	if s.MinStateDepartures != 49 {
		t.Fatalf("MinStateDepartures = %d, want 49", s.MinStateDepartures)
	}
	if s.SparseStates != 0 {
		t.Fatalf("SparseStates = %d", s.SparseStates)
	}
	// SparseDepartures cycles: A departs SparseDepartures times, B once
	// fewer, so B alone is sparse.
	e := NewEstimator(0)
	e.Observe(alternating(pA, pB, 10, 5, SparseDepartures))
	few, err := e.Model()
	if err != nil {
		t.Fatal(err)
	}
	if s2 := few.SupportSummary(); s2.MinStateDepartures != SparseDepartures-1 || s2.SparseStates != 1 {
		t.Fatalf("%d cycles: min departures %d, SparseStates %d, want %d and 1",
			SparseDepartures, s2.MinStateDepartures, s2.SparseStates, SparseDepartures-1)
	}
}

func TestMaxSojournClamp(t *testing.T) {
	e := NewEstimator(8)
	e.Observe(alternating(pA, pB, 10, 5, 3))
	m := countsOf(e)
	// 10-minute runs are clamped to 8.
	if q := kernelProb(m, pA, pB, 8); q == 0 {
		t.Error("clamped sojourn not recorded at the cap")
	}
	if q := kernelProb(m, pA, pB, 10); q != 0 {
		t.Error("sojourn recorded beyond the cap")
	}
}

// TestOneMinuteForecastIsConditionalOneStep pins the one-minute forecast
// to Equation 14 read conditionally on the run's age k: from state i,
// the price either holds past k, with mass S(k+1), or jumps at k into
// level j, with mass N^k_{i,j}/N_i, both over S(k) = P(K >= k). The
// oracle sums the raw counts; the models keep at most 96 distinct
// sojourns per state, so the forecast's sojourn tables are unbucketed.
func TestOneMinuteForecastIsConditionalOneStep(t *testing.T) {
	ests := []*Estimator{altEstimator()}
	for _, seed := range []uint64{1, 2, 3} {
		_, tr := fastTestModel(t, seed, 1)
		e := NewEstimator(0)
		e.Observe(tr)
		ests = append(ests, e)
	}
	checked := 0
	for mi, e := range ests {
		m, err := e.Model()
		if err != nil {
			t.Fatal(err)
		}
		for i, pi := range m.prices {
			// surv[k] counts the departures from i after at least k
			// minutes, jumps[k] the N^k_{i,j} by destination.
			var surv []int64
			jumps := map[int64]map[int]int64{}
			for _, c := range countsOf(e).cells {
				if c.from != i {
					continue
				}
				for int64(len(surv)) <= c.k {
					surv = append(surv, 0)
				}
				for a := int64(0); a <= c.k; a++ {
					surv[a] += c.count
				}
				if jumps[c.k] == nil {
					jumps[c.k] = map[int]int64{}
				}
				jumps[c.k][c.to] += c.count
			}
			if len(surv) == 0 {
				continue // absorbing
			}
			if len(jumps) > 96 {
				t.Fatalf("model %d state %d: %d distinct sojourns, the forecast would bucket them", mi, i, len(jumps))
			}
			n := float64(surv[0]) // N_i
			S := func(k int64) float64 {
				if k >= int64(len(surv)) {
					return 0
				}
				return float64(surv[k]) / n
			}
			for k := int64(1); S(k) > 0; k++ {
				f, err := m.Forecast(pi, k, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, fp0 := range []float64{0, 0.01} {
					for _, b := range m.prices {
						held := 0.0
						if pi <= b {
							held = S(k + 1)
						}
						for j, c := range jumps[k] {
							if m.prices[j] <= b {
								held += float64(c) / n
							}
						}
						want := 1 - (1-fp0)*held/S(k)
						got := f.FailureProbability(b, fp0)
						if math.Abs(got-want) > 1e-12 {
							t.Fatalf("model %d state %v age %d bid %v fp0 %v: FP %v, conditional one-step %v", mi, pi, k, b, fp0, got, want)
						}
						if b == pi && S(k+1) > 0 && got >= 1 {
							t.Fatalf("model %d state %v age %d: bid at the current price fails surely, yet the price may hold", mi, pi, k)
						}
						checked++
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no state checked")
	}
}

func TestForecastDeterministicAlternation(t *testing.T) {
	m := altModel(t)
	// From A with age 1 over 14 minutes: A for minutes 0..8 (9 min),
	// then B for minutes 9..13 (5 min).
	f, err := m.Forecast(pA, 1, 14)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, o := range f.avgOcc {
		sum += o
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("occupancy sums to %v, want 1", sum)
	}
	wantB := 5.0 / 14.0
	if got := outOfBidFraction(f, pA); math.Abs(got-wantB) > 1e-9 {
		t.Errorf("outOfBidFraction(A) = %v, want %v", got, wantB)
	}
	if got := outOfBidFraction(f, pB); got != 0 {
		t.Errorf("outOfBidFraction(B) = %v, want 0", got)
	}
}

func TestForecastMidRun(t *testing.T) {
	m := altModel(t)
	// From A with age 8: A remains for minutes 0..1, B covers 2..6,
	// A again 7..9 over a 10-minute horizon => A: 5, B: 5.
	f, err := m.Forecast(pA, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := outOfBidFraction(f, pA); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("outOfBidFraction(A) = %v, want 0.5", got)
	}
}

func TestForecastFailureProbabilityComposesFP0(t *testing.T) {
	m := altModel(t)
	f, err := m.Forecast(pA, 1, 14)
	if err != nil {
		t.Fatal(err)
	}
	out := outOfBidFraction(f, pA)
	want := 1 - (1-0.01)*(1-out)
	if got := f.FailureProbability(pA, 0.01); math.Abs(got-want) > 1e-12 {
		t.Errorf("FailureProbability = %v, want %v", got, want)
	}
	// A bid covering every state still fails at the on-demand rate.
	if got := f.FailureProbability(pB, 0.01); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("covering bid FP = %v, want 0.01", got)
	}
}

func TestForecastAgeBeyondObserved(t *testing.T) {
	m := altModel(t)
	// Age 100 exceeds every observed A sojourn: the model assumes an
	// immediate departure to B.
	f, err := m.Forecast(pA, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	// B occupies the whole 5-minute horizon.
	if got := outOfBidFraction(f, pA); math.Abs(got-1) > 1e-9 {
		t.Errorf("outOfBidFraction(A) = %v, want 1 (all mass in B)", got)
	}
}

func TestForecastUnknownPriceMapsToNearest(t *testing.T) {
	m := altModel(t)
	f1, err := m.Forecast(pA+1, 1, 14)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := m.Forecast(pA, 1, 14)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(outOfBidFraction(f1, pA)-outOfBidFraction(f2, pA)) > 1e-12 {
		t.Error("near-A price forecast differs from A forecast")
	}
}

func TestForecastBadHorizon(t *testing.T) {
	m := altModel(t)
	if _, err := m.Forecast(pA, 1, 0); err == nil {
		t.Fatal("zero horizon accepted")
	}
}

func TestMinimalBid(t *testing.T) {
	m := altModel(t)
	f, err := m.Forecast(pA, 1, 14)
	if err != nil {
		t.Fatal(err)
	}
	// FP(A) = 5/14 ≈ 0.357 with fp0 = 0.
	bid, ok := f.MinimalBid(0.4, 0, market.FromDollars(1))
	if !ok || bid != pA {
		t.Fatalf("MinimalBid(0.4) = %v, %v; want A", bid, ok)
	}
	bid, ok = f.MinimalBid(0.2, 0, market.FromDollars(1))
	if !ok || bid != pB {
		t.Fatalf("MinimalBid(0.2) = %v, %v; want B", bid, ok)
	}
	// Unreachable target under a cap below B.
	if _, ok := f.MinimalBid(0.2, 0, pB-1); ok {
		t.Fatal("MinimalBid succeeded below the only adequate level")
	}
	// fp0 alone can exceed the target.
	if _, ok := f.MinimalBid(0.005, 0.01, market.FromDollars(1)); ok {
		t.Fatal("MinimalBid ignored fp0 floor")
	}
}

// TestForecastOccupancySumsToOne is the core sanity property across a
// realistic learned model: total occupancy is conserved.
func TestForecastOccupancySumsToOne(t *testing.T) {
	set, err := trace.Generate(trace.GenConfig{
		Seed: 33, Type: market.M1Small,
		Zones: []string{"us-west-2a"}, Start: 0, End: 6 * 7 * 24 * 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := set.ByZone["us-west-2a"]
	e := NewEstimator(0)
	e.Observe(tr)
	m, err := e.Model()
	if err != nil {
		t.Fatal(err)
	}
	for _, age := range []int64{1, 7, 30, 200} {
		for _, h := range []int64{10, 60, 360} {
			f, err := m.Forecast(tr.PriceAt(tr.End-1), age, h)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for _, o := range f.avgOcc {
				sum += o
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Errorf("age=%d h=%d: occupancy sums to %v", age, h, sum)
			}
		}
	}
}

// TestForecastPredictsHeldOutOutOfBid trains on 13 weeks and checks the
// predicted out-of-bid fraction for a bid at the top normal level
// against the next month of actual prices — the Fig. 4 mechanism.
func TestForecastPredictsHeldOutOutOfBid(t *testing.T) {
	const week = int64(7 * 24 * 60)
	set, err := trace.Generate(trace.GenConfig{
		Seed: 55, Type: market.M1Small,
		Zones: []string{"us-east-1a"}, Start: 0, End: 17 * week,
	})
	if err != nil {
		t.Fatal(err)
	}
	full := set.ByZone["us-east-1a"]
	train := full.Window(0, 13*week)
	test := full.Window(13*week, 17*week)

	e := NewEstimator(0)
	e.Observe(train)
	m, err := e.Model()
	if err != nil {
		t.Fatal(err)
	}
	cur := train.PriceAt(train.End - 1)
	f, err := m.Forecast(cur, 1, 6*60)
	if err != nil {
		t.Fatal(err)
	}
	od, err := market.OnDemandPrice("us-east-1a", market.M1Small)
	if err != nil {
		t.Fatal(err)
	}
	bid, ok := f.MinimalBid(0.02, market.OnDemandFailureProbability, od)
	if !ok {
		t.Fatal("no bid meets a 2% failure target")
	}
	measured := test.FractionAbove(bid)
	// The estimate holds to within a small absolute deviation on
	// held-out data (the paper's Fig. 4 reports ~0.01 targets met with
	// exceptions below 0.02).
	if measured > 0.06 {
		t.Fatalf("held-out out-of-bid fraction %v far above the 2%% target", measured)
	}
}

func TestForecastAbsorbingState(t *testing.T) {
	// A trace whose final price level is never observed departing: the
	// model treats it as absorbing when forecasting from it.
	tr := &trace.Trace{
		Zone: "test-1a", Type: market.M1Small, Start: 0, End: 40,
		Points: []trace.PricePoint{
			{Minute: 0, Price: pA},
			{Minute: 10, Price: pB},
			{Minute: 20, Price: pA},
			{Minute: 30, Price: market.Money(20000)}, // terminal, never departs
		},
	}
	e := NewEstimator(0)
	e.Observe(tr)
	m, err := e.Model()
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.Forecast(market.Money(20000), 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := outOfBidFraction(f, market.Money(20000)); got != 0 {
		t.Errorf("absorbing state escaped: out fraction %v", got)
	}
	if got := outOfBidFraction(f, pB); math.Abs(got-1) > 1e-9 {
		t.Errorf("absorbing state occupancy = %v, want all above B", got)
	}
}
